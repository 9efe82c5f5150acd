package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/here-ft/here/internal/controlplane"
)

// extractAddr pulls the global client-mode flags out of args: -addr
// (or --addr), which switches herectl into client mode when non-empty,
// and -retries, the transient-failure retry count (-1 = the client's
// default policy, 0 = no retries).
func extractAddr(args []string) (addr string, retries int, rest []string) {
	retries = -1
	rest = make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, val, eq := strings.Cut(strings.TrimLeft(a, "-"), "=")
		isFlag := strings.HasPrefix(a, "-")
		if isFlag && (name == "addr" || name == "retries") {
			if !eq && i+1 < len(args) {
				val = args[i+1]
				i++
			}
			if name == "addr" {
				addr = val
			} else if n, err := strconv.Atoi(val); err == nil && n >= 0 {
				retries = n
			}
			continue
		}
		rest = append(rest, a)
	}
	return addr, retries, rest
}

// runClient executes one client-mode verb against the daemon at addr.
func runClient(addr string, retries int, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("client mode needs a verb: protect, list, status, unprotect, failover, period, recovery, events, hosts, placement, metrics, trace, timeline, fleet, health")
	}
	c := controlplane.NewClient(addr)
	if retries >= 0 {
		policy := controlplane.DefaultRetryPolicy
		policy.MaxAttempts = retries + 1
		c.SetRetry(policy)
	}
	verb, args := args[0], args[1:]
	switch verb {
	case "protect":
		return clientProtect(c, args)
	case "list":
		return clientList(c)
	case "status":
		return clientStatus(c, args)
	case "unprotect":
		return clientUnprotect(c, args)
	case "failover":
		return clientFailover(c, args)
	case "period":
		return clientPeriod(c, args)
	case "recovery":
		return clientRecovery(c, args)
	case "events":
		return clientEvents(c, args)
	case "hosts":
		return clientHosts(c)
	case "placement":
		return clientPlacement(c)
	case "metrics":
		return clientMetrics(c, args)
	case "trace":
		return clientTrace(c, args)
	case "timeline":
		return clientTimeline(c, args)
	case "fleet":
		return clientFleet(c)
	case "health":
		return clientHealth(c)
	default:
		return fmt.Errorf("unknown client verb %q", verb)
	}
}

func clientProtect(c *controlplane.Client, args []string) error {
	fs := flag.NewFlagSet("protect", flag.ExitOnError)
	name := fs.String("name", "guest", "vm name")
	memMB := fs.Int("mem", 1024, "guest memory in MiB")
	vcpus := fs.Int("vcpus", 4, "guest vCPUs")
	wl := fs.String("workload", "idle", "workload: idle or membench")
	load := fs.Float64("load", 30, "membench working-set percentage")
	seed := fs.Int64("seed", 1, "workload random seed")
	secondaries := fs.Int("secondaries", 1, "replication chain width: number of replica hosts")
	quorum := fs.Int("quorum", 0, "checkpoint ack quorum (0 = all legs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := c.Protect(controlplane.ProtectRequest{
		Name:        *name,
		MemoryBytes: uint64(*memMB) << 20,
		VCPUs:       *vcpus,
		Workload:    *wl,
		LoadPercent: *load,
		Seed:        *seed,
		Secondaries: *secondaries,
		Quorum:      *quorum,
	})
	if err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func clientList(c *controlplane.Client) error {
	vms, err := c.VMs()
	if err != nil {
		return err
	}
	if len(vms) == 0 {
		fmt.Println("no protected VMs")
		return nil
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-12s %-4s %-12s %-14s %-14s %8s %10s\n",
		"NAME", "GEN", "MODE", "PRIMARY", "SECONDARY", "EPOCH", "PERIOD")
	for _, vm := range vms {
		sec := "-"
		if len(vm.Secondaries) > 0 {
			names := make([]string, len(vm.Secondaries))
			for i, s := range vm.Secondaries {
				names[i] = s.Name
			}
			sec = strings.Join(names, "+")
		} else if vm.Secondary != nil {
			sec = vm.Secondary.Name
		}
		fmt.Fprintf(w, "%-12s %-4d %-12s %-14s %-14s %8d %10s\n",
			vm.Name, vm.Generation, vm.Mode, vm.Primary.Name, sec, vm.Epoch,
			time.Duration(vm.PeriodMS)*time.Millisecond)
	}
	return w.Flush()
}

func clientStatus(c *controlplane.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: status <name>")
	}
	st, err := c.VM(args[0])
	if err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func printStatus(st controlplane.VMStatus) {
	fmt.Printf("vm      : %s (generation %d, %s, running=%v)\n",
		st.Name, st.Generation, st.Mode, st.Running)
	sec := "none (unprotected)"
	if len(st.Secondaries) > 0 {
		parts := make([]string, len(st.Secondaries))
		for i, s := range st.Secondaries {
			parts[i] = fmt.Sprintf("%s (%s, %s)", s.Name, s.Product, s.Health)
		}
		sec = strings.Join(parts, " + ")
	} else if st.Secondary != nil {
		sec = fmt.Sprintf("%s (%s, %s)", st.Secondary.Name, st.Secondary.Product, st.Secondary.Health)
	}
	fmt.Printf("chain   : %s (%s, %s) -> %s\n",
		st.Primary.Name, st.Primary.Product, st.Primary.Health, sec)
	if len(st.Legs) > 0 {
		quorum := st.Quorum
		if quorum <= 0 {
			quorum = len(st.Legs)
		}
		fmt.Printf("quorum  : %d of %d legs must ack each checkpoint\n", quorum, len(st.Legs))
		for _, l := range st.Legs {
			state := "ok"
			switch {
			case l.Dead:
				state = "DEAD: " + l.DeadCause
			case l.NeedsSeed:
				state = "seeding"
			}
			fmt.Printf("  leg %d : %s (%s) acked epoch %d, %d pages pending [%s]\n",
				l.Index, l.Host, l.Product, l.AckedEpoch, l.PendingPages, state)
		}
	}
	if d := st.Placement; d != nil {
		for _, ch := range d.Secondaries {
			fmt.Printf("placed  : %s [%s] overlap %d CVEs, load %d, score %.1f%s\n", ch.Host, ch.Flavor,
				ch.Overlap, ch.Load, ch.Score, map[bool]string{true: ", warm copy"}[ch.Warm])
		}
		for _, rej := range d.Rejections {
			detail := string(rej.Reason)
			if rej.Detail != "" {
				detail += ": " + rej.Detail
			}
			fmt.Printf("rejected: %s [%s] %s\n", rej.Host, rej.Flavor, detail)
		}
	}
	fmt.Printf("period  : %v (budget D=%.3g, Tmax=%v)\n",
		time.Duration(st.PeriodMS)*time.Millisecond, st.Budget,
		time.Duration(st.MaxPeriod)*time.Millisecond)
	fmt.Printf("epochs  : %d checkpoints, %d pages, %.1f MiB\n",
		st.Checkpoints, st.PagesSent, float64(st.BytesSent)/(1<<20))
	r := st.Recovery
	fmt.Printf("recovery: %d retries, %d rollbacks, %d degraded entries, %d resyncs\n",
		r.Retries, r.Rollbacks, r.DegradedEntries, r.Resyncs)
	if st.Wire.RawBytes > 0 {
		fmt.Printf("wire    : %.1f MiB raw -> %.1f MiB encoded (ratio %.2f)\n",
			float64(st.Wire.RawBytes)/(1<<20), float64(st.Wire.EncodedBytes)/(1<<20),
			st.Wire.Ratio)
	}
}

func clientUnprotect(c *controlplane.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: unprotect <name>")
	}
	if err := c.Unprotect(args[0]); err != nil {
		return err
	}
	fmt.Printf("unprotected %s\n", args[0])
	return nil
}

func clientFailover(c *controlplane.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: failover <name>")
	}
	res, err := c.Failover(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("failover: %s resumed on %s in %v (generation %d, %d packets dropped)\n",
		res.Name, res.NewPrimary, time.Duration(res.ResumeTimeUS)*time.Microsecond,
		res.Generation, res.PacketsDropped)
	if res.Reprotected {
		fmt.Println("          re-protected onto a fresh heterogeneous secondary")
	} else {
		fmt.Println("          running UNPROTECTED: no heterogeneous spare available")
	}
	return nil
}

func clientPeriod(c *controlplane.Client, args []string) error {
	name, args, err := takeName(args, "period <name> [-budget D] [-tmax T]")
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("period", flag.ExitOnError)
	budget := fs.Float64("budget", 0.3, "degradation budget D")
	tmax := fs.Duration("tmax", 25*time.Second, "maximum checkpoint interval T_max (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := c.SetPeriod(name, *budget, *tmax)
	if err != nil {
		return err
	}
	fmt.Printf("period  : %s now D=%.3g Tmax=%v, interval %v\n",
		res.Name, res.Budget, time.Duration(res.MaxPeriodMS)*time.Millisecond,
		time.Duration(res.PeriodMS)*time.Millisecond)
	return nil
}

func clientRecovery(c *controlplane.Client, args []string) error {
	name, args, err := takeName(args, "recovery <name> [-deadline D] [-attempts N] [-backoff B] [-jitter J] | recovery <name> -off")
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	deadline := fs.Duration("deadline", 30*time.Second, "hard recovery deadline before escalating to failover")
	attempts := fs.Int("attempts", 3, "microreboot attempts before escalating (0 disables in-place recovery)")
	backoff := fs.Duration("backoff", 2*time.Second, "base backoff between attempts")
	jitter := fs.Float64("jitter", 0.2, "backoff jitter fraction [0,1)")
	off := fs.Bool("off", false, "disable in-place recovery (every failure fails over)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	patch := controlplane.RecoveryPatch{
		DeadlineMS:  deadline.Milliseconds(),
		MaxAttempts: *attempts,
		BackoffMS:   backoff.Milliseconds(),
		Jitter:      *jitter,
	}
	if *off {
		patch = controlplane.RecoveryPatch{}
	}
	res, err := c.SetRecovery(name, patch)
	if err != nil {
		return err
	}
	if !res.Enabled {
		fmt.Printf("recovery: %s in-place recovery DISABLED (every failure fails over)\n", res.Name)
		return nil
	}
	fmt.Printf("recovery: %s up to %d in-place attempts, deadline %v, backoff %v (jitter %.0f%%)\n",
		res.Name, res.Policy.MaxAttempts,
		time.Duration(res.Policy.DeadlineMS)*time.Millisecond,
		time.Duration(res.Policy.BackoffMS)*time.Millisecond,
		100*res.Policy.Jitter)
	return nil
}

func clientEvents(c *controlplane.Client, args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	since := fs.Uint64("since", 0, "only events with seq greater than this cursor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := c.Events(*since)
	if err != nil {
		return err
	}
	for _, e := range res.Events {
		fmt.Printf("%6d  %s  %-18s %-10s %s\n",
			e.Seq, e.Time.Format("15:04:05.000"), e.Kind, e.VM, e.Detail)
	}
	fmt.Printf("next cursor: %d\n", res.Next)
	return nil
}

func clientHosts(c *controlplane.Client) error {
	hosts, err := c.Hosts()
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-12s %-5s %-24s %-10s %4s  %s\n", "NAME", "KIND", "PRODUCT", "HEALTH", "VMS", "REASON")
	for _, h := range hosts {
		reason := h.Reason
		if reason == "" {
			reason = "-"
		}
		fmt.Fprintf(w, "%-12s %-5s %-24s %-10s %4d  %s\n", h.Name, h.Kind, h.Product, h.Health, h.VMs, reason)
	}
	return w.Flush()
}

func clientPlacement(c *controlplane.Client) error {
	matrix, err := c.Placement()
	if err != nil {
		return err
	}
	if len(matrix.Pairs) == 0 {
		fmt.Println("no host pairs (fleet has fewer than two hosts)")
		return nil
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-12s %-12s %-12s %-12s %8s %8s\n",
		"PRIMARY", "SECONDARY", "P-FLAVOR", "S-FLAVOR", "OVERLAP", "SCORE")
	for _, p := range matrix.Pairs {
		fmt.Fprintf(w, "%-12s %-12s %-12s %-12s %8d %8.1f\n",
			p.Primary, p.Secondary, p.PrimaryFlavor, p.SecondaryFlavor, p.Overlap, p.Score)
	}
	return w.Flush()
}

func clientMetrics(c *controlplane.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := c.Metrics()
	if err != nil {
		return err
	}
	return writeOut(*out, data)
}

func clientTrace(c *controlplane.Client, args []string) error {
	name, args, err := takeName(args, "trace <name> [-o file]")
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := c.Trace(name)
	if err != nil {
		return err
	}
	return writeOut(*out, data)
}

// takeName peels the leading positional <name> argument off args so
// that verb flags may follow it (the flag package stops parsing at
// the first positional otherwise).
func takeName(args []string, usage string) (string, []string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", nil, fmt.Errorf("usage: %s", usage)
	}
	return args[0], args[1:], nil
}

func writeOut(path string, data []byte) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
	}
	return nil
}

func clientHealth(c *controlplane.Client) error {
	h, err := c.Healthz()
	if err != nil {
		return err
	}
	r, err := c.Readyz()
	ready := err == nil && r.Status == "ready"
	fmt.Printf("health  : %s, ready=%v, %d pump ticks, sim time %s\n",
		h.Status, ready, h.Ticks, h.SimTime.Format(time.RFC3339))
	return nil
}
