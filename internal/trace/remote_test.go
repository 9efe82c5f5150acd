package trace_test

import (
	"testing"
	"time"

	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
)

func TestWireTransit(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	// Local epoch: no remote stages, no wire transit.
	local := trace.EpochStages{Transfer: ms(10)}
	if local.HasRemote() || local.WireTransit() != 0 {
		t.Fatalf("local epoch: %v, %v", local.HasRemote(), local.WireTransit())
	}

	// Remote epoch: transit is the transfer minus the replica's work.
	remote := trace.EpochStages{
		Transfer: ms(10), RemoteRecv: ms(2), RemoteDecode: ms(1),
		RemoteApply: ms(3), RemoteAck: ms(1),
	}
	if !remote.HasRemote() || remote.RemoteSum() != ms(7) {
		t.Fatalf("remote sum: %v", remote.RemoteSum())
	}
	if got := remote.WireTransit(); got != ms(3) {
		t.Fatalf("wire transit = %v, want 3ms", got)
	}

	// Cross-clock-domain skew can push the replica's reported work past
	// the sender's transfer span; transit clamps at zero.
	skewed := trace.EpochStages{Transfer: ms(5), RemoteApply: ms(9)}
	if got := skewed.WireTransit(); got != 0 {
		t.Fatalf("skewed wire transit = %v, want 0", got)
	}
}

func TestEpochBreakdownMergesRemoteSpans(t *testing.T) {
	clk := vclock.NewSim()
	tr := trace.New(clk, 64)
	start := clk.Now()
	rec := func(kind trace.Kind, epoch int64, dur time.Duration, bytes int64) {
		tr.Record(trace.Event{Kind: kind, Epoch: epoch, Start: start, Dur: dur, Bytes: bytes})
	}
	rec(trace.SpanPause, 1, 20*time.Millisecond, 1<<20)
	rec(trace.SpanTransfer, 1, 10*time.Millisecond, 1<<20)
	rec(trace.SpanRemoteRecv, 1, 2*time.Millisecond, 1<<20)
	rec(trace.SpanRemoteDecode, 1, time.Millisecond, 0)
	rec(trace.SpanRemoteApply, 1, 3*time.Millisecond, 0)
	rec(trace.SpanRemoteAck, 1, time.Millisecond, 0)
	rec(trace.SpanPause, 2, 5*time.Millisecond, 0) // local-only epoch

	epochs := trace.EpochBreakdown(tr.Events())
	if len(epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(epochs))
	}
	one := epochs[0]
	if one.RemoteRecv != 2*time.Millisecond || one.RemoteDecode != time.Millisecond ||
		one.RemoteApply != 3*time.Millisecond || one.RemoteAck != time.Millisecond {
		t.Fatalf("remote stages not merged: %+v", one)
	}
	if got := one.WireTransit(); got != 3*time.Millisecond {
		t.Fatalf("epoch 1 wire transit = %v, want 3ms", got)
	}
	if epochs[1].HasRemote() {
		t.Fatalf("local epoch grew remote stages: %+v", epochs[1])
	}
}
