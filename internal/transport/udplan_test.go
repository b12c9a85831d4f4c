package transport

import (
	"errors"
	"io"
	"testing"
	"time"
)

// udpBase is the start of the port range used by these tests. Chosen high
// to dodge well-known services; tests skip when binding fails entirely.
const udpBase = 39400

func newTestUDPLAN(t *testing.T, size int) *UDPLAN {
	t.Helper()
	l, err := NewUDPLAN("127.0.0.1", udpBase, size)
	if err != nil {
		t.Fatalf("NewUDPLAN: %v", err)
	}
	return l
}

func TestFreeUDPSegment(t *testing.T) {
	base, err := FreeUDPSegment("127.0.0.1", 8)
	if err != nil {
		t.Fatalf("FreeUDPSegment: %v", err)
	}
	// The range it found must immediately host a working segment.
	l, err := NewUDPLAN("127.0.0.1", base, 8)
	if err != nil {
		t.Fatalf("NewUDPLAN at probed base %d: %v", base, err)
	}
	a := attach(t, l, "a")
	b := attach(t, l, "b")
	if err := a.Broadcast([]byte("hi")); err != nil {
		t.Fatalf("broadcast on probed segment: %v", err)
	}
	select {
	case dg := <-b.Recv():
		if dg.From != "a" || string(dg.Payload) != "hi" {
			t.Errorf("datagram = %+v", dg)
		}
	case <-time.After(2 * time.Second):
		t.Error("broadcast never arrived on probed segment")
	}

	if _, err := FreeUDPSegment("127.0.0.1", 0); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestUDPLANValidation(t *testing.T) {
	if _, err := NewUDPLAN("127.0.0.1", 0, 4); err == nil {
		t.Error("base port 0 accepted")
	}
	if _, err := NewUDPLAN("127.0.0.1", 40000, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewUDPLAN("127.0.0.1", 65530, 100); err == nil {
		t.Error("overflowing range accepted")
	}
}

func TestUDPLANStream(t *testing.T) {
	l := newTestUDPLAN(t, 4)
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	done := make(chan error, 1)
	go func() {
		conn, err := b.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(buf)
		done <- err
	}()

	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("echo")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "echo" {
		t.Errorf("echo = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if conn.LocalAddr() == "" || conn.RemoteAddr() == "" {
		t.Error("empty stream addresses")
	}
}

func TestUDPLANBroadcast(t *testing.T) {
	l := newTestUDPLAN(t, 4)
	a := attach(t, l, "alpha")
	b := attach(t, l, "beta")
	c := attach(t, l, "gamma")

	if err := a.Broadcast([]byte("discover")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for _, ifc := range []Interface{b, c} {
		select {
		case dg := <-ifc.Recv():
			if dg.From != "alpha" || string(dg.Payload) != "discover" {
				t.Errorf("%s got %+v", ifc.Node(), dg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no datagram", ifc.Node())
		}
	}
	select {
	case dg := <-a.Recv():
		t.Errorf("sender received own broadcast: %+v", dg)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUDPLANDuplicateNode(t *testing.T) {
	l := newTestUDPLAN(t, 4)
	attach(t, l, "dup")
	if _, err := l.Attach("dup"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v, want ErrDuplicate", err)
	}
}

func TestUDPLANSegmentFull(t *testing.T) {
	l := newTestUDPLAN(t, 2)
	attach(t, l, "one")
	attach(t, l, "two")
	if _, err := l.Attach("three"); !errors.Is(err, ErrSegmentFull) {
		t.Errorf("err = %v, want ErrSegmentFull", err)
	}
}

func TestUDPLANClose(t *testing.T) {
	l := newTestUDPLAN(t, 4)
	a, err := l.Attach("a")
	if err != nil {
		t.Fatal(err)
	}

	acceptErr := make(chan error, 1)
	go func() {
		_, err := a.Accept()
		acceptErr <- err
	}()
	// As in TestMemLANClose: a goroutine parked in Accept shows no edge to
	// wait on, and an Accept that comes after Close fails too, so the
	// sleep picks the path, never the verdict.
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-acceptErr:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock")
	}
	if _, open := <-a.Recv(); open {
		t.Error("Recv open after Close")
	}
	if err := a.Broadcast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Broadcast after close = %v, want ErrClosed", err)
	}
	// Port slot is released for reuse.
	b := attach(t, l, "a")
	if b.Node() != "a" {
		t.Error("re-attach failed")
	}
}

func TestUDPLANBroadcastTooLarge(t *testing.T) {
	l := newTestUDPLAN(t, 2)
	a := attach(t, l, "a")
	if err := a.Broadcast(make([]byte, MaxDatagram+1)); !errors.Is(err, ErrPayloadLarge) {
		t.Errorf("err = %v, want ErrPayloadLarge", err)
	}
}

func TestUDPLANMalformedDatagramIgnored(t *testing.T) {
	// A raw packet that does not carry the node-name prefix must be
	// dropped without disturbing the reader.
	l := newTestUDPLAN(t, 4)
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	// Locate b's UDP port by probing the segment directly.
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF} // huge uvarint name length
	for p := udpBase; p < udpBase+4; p++ {
		conn, err := newUDPSender()
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.sendTo("127.0.0.1", p, raw)
		_ = conn.close()
	}
	// A well-formed broadcast still gets through afterwards.
	if err := a.Broadcast([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-b.Recv():
		if string(dg.Payload) != "ok" {
			t.Errorf("payload = %q", dg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader died on malformed datagram")
	}
}

func TestUDPLANSegmentClose(t *testing.T) {
	l := newTestUDPLAN(t, 4)
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Attach("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Attach after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Interfaces attached before Close keep working.
	if err := a.Broadcast([]byte("still-up")); err != nil {
		t.Fatalf("Broadcast after segment close: %v", err)
	}
	select {
	case dg := <-b.Recv():
		if string(dg.Payload) != "still-up" {
			t.Errorf("payload = %q", dg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no datagram after segment close")
	}
	// And they can still detach cleanly.
	if err := a.Close(); err != nil {
		t.Errorf("iface close: %v", err)
	}
}

// TestUDPLANBroadcastUsesCachedHeader checks the attach-time preassembly:
// the cached header must decode back to the node name on the receivers.
func TestUDPLANBroadcastUsesCachedHeader(t *testing.T) {
	l := newTestUDPLAN(t, 3)
	a := attach(t, l, "node-with-a-longer-name")
	b := attach(t, l, "b")
	if got, want := len(a.(*udpIface).peers), 2; got != want {
		t.Fatalf("cached peers = %d, want %d", got, want)
	}
	for n := 0; n < 3; n++ {
		if err := a.Broadcast([]byte{byte('0' + n)}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 3; n++ {
		select {
		case dg := <-b.Recv():
			if dg.From != "node-with-a-longer-name" {
				t.Fatalf("From = %q", dg.From)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("datagram %d lost", n)
		}
	}
}

// BenchmarkUDPLANBroadcast measures the discovery hot path: one op = one
// datagram fanned out to the whole segment.
func BenchmarkUDPLANBroadcast(b *testing.B) {
	l, err := NewUDPLAN("127.0.0.1", udpBase+200, 8)
	if err != nil {
		b.Fatal(err)
	}
	ifc, err := l.Attach("bench")
	if err != nil {
		b.Skipf("attach: %v", err)
	}
	defer ifc.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ifc.Broadcast(payload); err != nil {
			b.Fatal(err)
		}
	}
}
