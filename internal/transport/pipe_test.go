package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// pattern fills n bytes that continue the stream's byte sequence at off, so
// a reordered, dropped or repeated byte shows at its offset.
func pattern(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + i) % 251)
	}
	return b
}

// TestPipeReadsSpanWrites: reads smaller than a write, reads covering
// several writes and reads across the ring's wrap all return the stream's
// bytes in order, each read taking everything that has arrived.
func TestPipeReadsSpanWrites(t *testing.T) {
	h := newPipeHalf(linkParams{}, nil)
	var written, read int
	write := func(n int) {
		t.Helper()
		if got, err := h.write(pattern(written, n)); got != n || err != nil {
			t.Fatalf("write(%d) = %d, %v", n, got, err)
		}
		written += n
	}
	readInto := func(size, want int) {
		t.Helper()
		buf := make([]byte, size)
		n, err := h.read(buf)
		if err != nil || n != want {
			t.Fatalf("read(%d bytes of room) = %d, %v; want %d", size, n, err, want)
		}
		if !bytes.Equal(buf[:n], pattern(read, n)) {
			t.Fatalf("bytes %d..%d came back out of order", read, read+n)
		}
		read += n
	}

	write(300)
	readInto(7, 7) // less than the one write buffered
	write(11)
	write(5000) // outgrows the first ring with 304 bytes unread
	readInto(100, 100)
	readInto(1<<16, written-read) // three writes' remainder in one read

	// Keep ~3 KB buffered in an 8 KB ring while 40 KB stream through, so
	// reads and writes both cross the wrap several times.
	write(3000)
	for i := 0; i < 40; i++ {
		write(1000)
		readInto(1000, 1000)
	}
	if len(h.ring) != 8<<10 {
		t.Errorf("ring is %d bytes, want it still 8 KB: a steady stream must not grow it", len(h.ring))
	}
	readInto(1<<16, 3000)
}

// TestPipeCloseDrainsThenEOF: bytes written before close are still read,
// then the reader sees io.EOF; writes after close fail.
func TestPipeCloseDrainsThenEOF(t *testing.T) {
	h := newPipeHalf(linkParams{}, nil)
	if _, err := h.write(pattern(0, 10)); err != nil {
		t.Fatal(err)
	}
	h.close()
	if _, err := h.write([]byte("late")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write after close = %v, want io.ErrClosedPipe", err)
	}
	buf := make([]byte, 6)
	for read := 0; read < 10; {
		n, err := h.read(buf)
		if err != nil {
			t.Fatalf("read with %d of 10 bytes drained: %v", read, err)
		}
		if !bytes.Equal(buf[:n], pattern(read, n)) {
			t.Fatalf("bytes %d..%d came back out of order", read, read+n)
		}
		read += n
	}
	if n, err := h.read(buf); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("read after the drain = %d, %v; want io.EOF", n, err)
	}
}

// TestPipeTimedLinkDeliversInOrderAndOnTime: with latency, jitter and a
// bandwidth cap, bytes still arrive in order, and none is readable before
// the earliest moment its write could arrive — the write's own
// transmission time plus latency plus its jitter sample, counted from
// just before the write. Jitter samples fall so that a later write would
// overtake an earlier one if arrival times were not kept monotone.
func TestPipeTimedLinkDeliversInOrderAndOnTime(t *testing.T) {
	const (
		latency   = 3 * time.Millisecond
		bandwidth = 1e6 // bytes/s: 1 µs per byte
	)
	jitters := []time.Duration{4 * time.Millisecond, 0, 2 * time.Millisecond, 0, 0, time.Millisecond}
	next := 0
	h := newPipeHalf(linkParams{latency: latency, jitter: 4 * time.Millisecond, bandwidth: bandwidth},
		func() time.Duration { next++; return jitters[next-1] })

	type sent struct {
		end      int       // stream offset one past the write
		earliest time.Time // nothing of the write is readable before this
	}
	var writes []sent
	written := 0
	for i, j := range jitters {
		n := 200 + 300*i
		before := time.Now()
		if _, err := h.write(pattern(written, n)); err != nil {
			t.Fatal(err)
		}
		written += n
		tx := time.Duration(float64(n) / bandwidth * float64(time.Second))
		writes = append(writes, sent{end: written, earliest: before.Add(tx + latency + j)})
	}

	buf := make([]byte, 700) // smaller than the later writes: reads split them
	for read := 0; read < written; {
		n, err := h.read(buf)
		now := time.Now()
		if err != nil {
			t.Fatalf("read at offset %d: %v", read, err)
		}
		if !bytes.Equal(buf[:n], pattern(read, n)) {
			t.Fatalf("bytes %d..%d came back out of order", read, read+n)
		}
		start := 0
		for _, w := range writes {
			if read < w.end && read+n > start && now.Before(w.earliest) {
				t.Fatalf("read returned bytes up to %d at %v, before the write ending at %d could arrive (%v)",
					read+n, now, w.end, w.earliest)
			}
			if start = w.end; start >= read+n {
				break
			}
		}
		read += n
	}
	if len(h.marks) != 0 || h.arrived != 0 || h.n != 0 {
		t.Errorf("drained pipe keeps %d marks, %d arrived, %d buffered bytes", len(h.marks), h.arrived, h.n)
	}
}

// TestPipeIdealLinkKeepsNoMarks: a link without latency, jitter or
// bandwidth records no arrival marks — its writes are readable at once.
func TestPipeIdealLinkKeepsNoMarks(t *testing.T) {
	h := newPipeHalf(linkParams{}, nil)
	for i := 0; i < 100; i++ {
		if _, err := h.write(pattern(0, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.marks) != 0 || cap(h.marks) != 0 {
		t.Errorf("ideal link keeps %d arrival marks (cap %d), want none", len(h.marks), cap(h.marks))
	}
	if h.arrived != 30000 {
		t.Errorf("arrived = %d right after the writes, want all 30000 bytes", h.arrived)
	}
}

// TestPipeBurstCapacityReleased: a 32 MB backlog grows the ring as far as
// it must, and the read that drains it gives the capacity back, whatever
// the burst was.
func TestPipeBurstCapacityReleased(t *testing.T) {
	h := newPipeHalf(linkParams{}, nil)
	const burst = 32 << 20
	chunk := pattern(0, 1<<20) // the burst repeats this 1 MB; 64 KB reads never straddle two
	for written := 0; written < burst; written += len(chunk) {
		if _, err := h.write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.ring) < burst {
		t.Fatalf("ring is %d bytes holding a %d-byte backlog", len(h.ring), burst)
	}
	buf := make([]byte, 64<<10)
	for read := 0; read < burst; {
		n, err := h.read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if off := read % len(chunk); !bytes.Equal(buf[:n], chunk[off:off+n]) {
			t.Fatalf("bytes %d..%d of the burst came back out of order", read, read+n)
		}
		read += n
	}
	if len(h.ring) > maxIdleRing {
		t.Errorf("drained ring keeps %d bytes, want at most %d", len(h.ring), maxIdleRing)
	}
	// The pipe is as usable as a fresh one.
	if _, err := h.write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if n, err := h.read(buf); err != nil || string(buf[:n]) != "after" {
		t.Errorf("read after the burst = %q, %v", buf[:n], err)
	}
}
