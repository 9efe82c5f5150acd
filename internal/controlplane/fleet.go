package controlplane

import (
	"net/http"
	"time"

	"github.com/here-ft/here/internal/orchestrator"
)

// FleetVM is one protection's row in the fleet health rollup.
type FleetVM struct {
	Name       string `json:"name"`
	Mode       string `json:"mode"`
	Generation int    `json:"generation"`
	Epoch      uint64 `json:"epoch"`
	// Legs is the chain width; DeadLegs counts permanently failed
	// members awaiting removal.
	Legs     int `json:"legs"`
	DeadLegs int `json:"dead_legs"`
	// LagEpochs is the worst acked-epoch lag across the chain: how far
	// the slowest live replica trails the primary's checkpoint cursor.
	LagEpochs uint64 `json:"lag_epochs"`
	// LastFailover is the time of the most recent failover event for
	// this VM, if any.
	LastFailover *time.Time `json:"last_failover,omitempty"`
	// Score grades this protection 0-100 (100 = fully protected and
	// caught up).
	Score float64 `json:"score"`
}

// FleetResponse is the GET /v1/fleet rollup: one row per protection
// plus fleet-wide aggregates.
type FleetResponse struct {
	// Status is "healthy" (score >= 90), "degraded" (>= 60), or
	// "critical"; "empty" when nothing is protected.
	Status string `json:"status"`
	// Score is the mean protection score across the fleet.
	Score float64   `json:"score"`
	VMs   []FleetVM `json:"vms"`
	// Modes counts protections by mode.
	Modes        map[string]int `json:"modes"`
	Hosts        int            `json:"hosts"`
	HealthyHosts int            `json:"healthy_hosts"`
	// DownHosts lists every host not currently healthy, with the
	// recorded failure reason, so the rollup explains *why* capacity is
	// missing, not just how much.
	DownHosts []HostDTO `json:"down_hosts,omitempty"`
	// Groups carries one rollup row per placement group (one row for
	// an unsharded fleet).
	Groups []FleetGroup `json:"groups"`
}

// FleetGroup is one placement group's rollup row.
type FleetGroup struct {
	Group       int     `json:"group"`
	Protections int     `json:"protections"`
	Ticks       uint64  `json:"ticks"`
	LastTickMS  float64 `json:"last_tick_ms"`
}

// protectionScore grades one protection 0-100: a base from the mode,
// minus 5 per epoch of replica lag (capped at 30) and 25 per dead
// leg, clamped to [0, 100].
func protectionScore(mode string, lagEpochs uint64, deadLegs int) float64 {
	var base float64
	switch mode {
	case "protected":
		base = 100
	case "resyncing":
		base = 70
	case "degraded":
		base = 40
	case "unprotected":
		base = 25
	case "lost":
		base = 0
	default:
		base = 50
	}
	lag := 5 * float64(lagEpochs)
	if lag > 30 {
		lag = 30
	}
	score := base - lag - 25*float64(deadLegs)
	if score < 0 {
		score = 0
	}
	if score > 100 {
		score = 100
	}
	return score
}

// handleFleet serves GET /v1/fleet: the fleet health rollup.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	all := s.m.StatusAll()

	// Most recent failover per VM, from the event log.
	lastFail := make(map[string]time.Time)
	for _, ev := range s.m.EventsSince(0) {
		if ev.Kind == orchestrator.EventFailedOver {
			lastFail[ev.VM] = ev.Time
		}
	}

	resp := FleetResponse{
		VMs:   make([]FleetVM, 0, len(all)),
		Modes: make(map[string]int),
	}
	var sum float64
	for _, st := range all {
		var lag uint64
		dead := 0
		for _, leg := range st.Legs {
			if leg.Dead {
				dead++
				continue
			}
			if d := st.Epoch - leg.AckedEpoch; st.Epoch > leg.AckedEpoch && d > lag {
				lag = d
			}
		}
		vm := FleetVM{
			Name:       st.Name,
			Mode:       string(st.Mode),
			Generation: st.Generation,
			Epoch:      st.Epoch,
			Legs:       len(st.Legs),
			DeadLegs:   dead,
			LagEpochs:  lag,
			Score:      protectionScore(string(st.Mode), lag, dead),
		}
		if t, ok := lastFail[st.Name]; ok {
			tt := t
			vm.LastFailover = &tt
		}
		resp.Modes[vm.Mode]++
		sum += vm.Score
		resp.VMs = append(resp.VMs, vm)
	}

	for _, h := range s.m.HostsStatus() {
		resp.Hosts++
		if h.Health == "healthy" {
			resp.HealthyHosts++
		} else {
			resp.DownHosts = append(resp.DownHosts, toHostDTO(h))
		}
	}

	for _, g := range s.m.GroupStatus() {
		resp.Groups = append(resp.Groups, FleetGroup{
			Group:       g.Group,
			Protections: g.Protections,
			Ticks:       g.Ticks,
			LastTickMS:  float64(g.LastTick) / float64(time.Millisecond),
		})
	}

	switch {
	case len(resp.VMs) == 0:
		resp.Status = "empty"
		resp.Score = 100
	default:
		resp.Score = sum / float64(len(resp.VMs))
		switch {
		case resp.Score >= 90:
			resp.Status = "healthy"
		case resp.Score >= 60:
			resp.Status = "degraded"
		default:
			resp.Status = "critical"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
