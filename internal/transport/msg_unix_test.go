//go:build unix

package transport

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

// TestSendTooLargeKeepsSession: Client.send refuses an oversize stream
// before it touches the connection or the stream. The stream is an
// inaccessible mapping of one byte over the limit — no memory behind it,
// and reading a single byte of it would fault — so "before a byte is
// written" is checked literally. The session carries on afterwards.
func TestSendTooLargeKeepsSession(t *testing.T) {
	huge, err := syscall.Mmap(-1, 0, maxMessage-streamCtxSize+1, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", maxMessage, err)
	}
	defer syscall.Munmap(huge)

	srv := NewServer(ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(ClientConfig{Addr: srv.Addr(), Protection: "vm0", MemBytes: 1 << 20, AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for _, send := range []func(uint64, []byte) error{cli.SendSeed, cli.SendCheckpoint} {
		if err := send(1, huge); !errors.Is(err, ErrStreamTooLarge) || !isPermanent(err) {
			t.Fatalf("sending %d bytes: %v, want a permanent ErrStreamTooLarge", len(huge), err)
		}
	}
	if st := cli.Status(); st.State != "connected" || st.Disconnects != 0 || st.Bytes != 0 {
		t.Errorf("the refused sends disturbed the session: %+v", st)
	}
	if _, err := cli.Transfer(0, 1); err != nil {
		t.Errorf("ping after the refused sends: %v", err)
	}
}
