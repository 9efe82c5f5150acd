package faults

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy direction selectors for stalls: Upstream is client→server
// (checkpoint streams), Downstream is server→client (acks, pongs).
const (
	Upstream   = 0
	Downstream = 1
)

// Proxy is a TCP fault-injection shim: it forwards between a listen
// address and a target, and on command refuses new connections, cuts
// every live connection, stalls one direction (acknowledgements
// vanish while the stream keeps flowing, or vice versa), or cuts a
// connection mid-stream after a byte budget — the partial-write case.
// Pointing a transport.Client at the proxy instead of the real server
// turns the chaos_test-style storms loose on genuine TCP connections.
//
// All knobs are safe to flip concurrently with traffic.
type Proxy struct {
	target string

	refuse   atomic.Bool
	stall    [2]atomic.Bool
	cutAfter atomic.Int64 // bytes of upstream forwarded before cutting; 0 = off

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]net.Conn // accepted → dialed
	closed bool
	wg     sync.WaitGroup

	cuts atomic.Int64
}

// NewProxy listens on listenAddr (e.g. "127.0.0.1:0") and forwards
// every accepted connection to target.
func NewProxy(listenAddr, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("faults: proxy listen %s: %w", listenAddr, err)
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[net.Conn]net.Conn)}
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return p, nil
}

// Addr is the proxy's listen address — what the client dials.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetRefuse makes the proxy close new connections immediately on
// accept (the peer sees a reset during handshake), or stop doing so.
func (p *Proxy) SetRefuse(v bool) { p.refuse.Store(v) }

// SetStall stops (or resumes) forwarding in one direction. Stalling
// Downstream loses acknowledgements while checkpoint bytes still
// arrive — the lost-ack case that leaves the replica one epoch ahead.
func (p *Proxy) SetStall(dir int, v bool) { p.stall[dir&1].Store(v) }

// CutAfter arms a mid-stream cut: each subsequent connection is torn
// down after n upstream bytes have been forwarded, leaving the server
// with a partial write. 0 disarms.
func (p *Proxy) CutAfter(n int64) { p.cutAfter.Store(n) }

// CutConnections tears down every live connection immediately.
func (p *Proxy) CutConnections() {
	p.mu.Lock()
	for a, b := range p.conns {
		a.Close()
		b.Close()
	}
	p.mu.Unlock()
}

// Cuts reports connections cut by CutAfter budgets.
func (p *Proxy) Cuts() int64 { return p.cuts.Load() }

// Close stops the listener and drops every connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.CutConnections()
	p.wg.Wait()
	return nil
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if p.refuse.Load() {
			conn.Close()
			continue
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			upstream.Close()
			return
		}
		p.conns[conn] = upstream
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(conn, upstream)
	}
}

// pipe runs both directions of one proxied connection until either
// side closes or a fault cuts it.
func (p *Proxy) pipe(client, server net.Conn) {
	defer p.wg.Done()
	defer func() {
		client.Close()
		server.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
	}()

	budget := p.cutAfter.Load() // snapshot per connection; 0 = unlimited
	done := make(chan struct{}, 2)

	// Upstream: client → server, subject to the cut budget.
	go func() {
		buf := make([]byte, 4096)
		var forwarded int64
		for {
			if p.stalled(Upstream, client) {
				break
			}
			n, err := client.Read(buf)
			if n > 0 {
				chunk := buf[:n]
				if budget > 0 && forwarded+int64(n) >= budget {
					// Forward only up to the budget, then cut mid-message.
					chunk = buf[:budget-forwarded]
					if len(chunk) > 0 {
						server.Write(chunk)
					}
					p.cuts.Add(1)
					client.Close()
					server.Close()
					break
				}
				if _, werr := server.Write(chunk); werr != nil {
					break
				}
				forwarded += int64(n)
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}()

	// Downstream: server → client, subject to stalls.
	go func() {
		buf := make([]byte, 4096)
		for {
			if p.stalled(Downstream, server) {
				break
			}
			n, err := server.Read(buf)
			if n > 0 {
				if p.stalled(Downstream, server) {
					break
				}
				if _, werr := client.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}()

	<-done
	// Closing both sockets unblocks the other copier.
	client.Close()
	server.Close()
	<-done
}

// stalled blocks while dir is stalled, polling, and reports true if
// the connection died (or the proxy closed) while waiting so the
// copier can exit. The read side keeps consuming nothing during a
// stall, so bytes pile up in kernel buffers exactly as a wedged WAN
// path would leave them.
func (p *Proxy) stalled(dir int, probe net.Conn) bool {
	for p.stall[dir&1].Load() {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed || connDead(probe) {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// connDead reports whether the socket has been closed locally.
func connDead(c net.Conn) bool {
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return true
	}
	return false
}

var _ io.Closer = (*Proxy)(nil)
