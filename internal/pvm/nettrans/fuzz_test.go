package nettrans

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net"
	"testing"
)

// encodeFrames renders frames as one connection's byte stream, through
// the same persistent-encoder codec a live connection writes with.
func encodeFrames(tb testing.TB, frames ...*frame) []byte {
	tb.Helper()
	var out bytes.Buffer
	c := &conn{w: bufio.NewWriter(&out)}
	c.enc = gob.NewEncoder(&c.encBuf)
	for _, f := range frames {
		if err := c.write(f); err != nil {
			tb.Fatal(err)
		}
	}
	return out.Bytes()
}

// FuzzConnRead feeds arbitrary bytes to the frame reader over a pipe:
// it must never panic, and must refuse every frame whose length prefix
// is 0 or over maxFrame instead of decoding it.
func FuzzConnRead(f *testing.F) {
	payload, err := encodePayload(echoSpec{Parent: 1, Bias: 100})
	if err != nil {
		f.Fatal(err)
	}
	ping, err := encodePayload(7)
	if err != nil {
		f.Fatal(err)
	}
	summary, err := encodePayload(testSummary{Total: 42})
	if err != nil {
		f.Fatal(err)
	}
	join := &frame{Type: fJoin, Worker: "ok", Speed: 1, Capacity: 1}
	stream := encodeFrames(f,
		join,
		&frame{Type: fJob, Seed: 7, WorkScale: 0.5, Slot: 1, Slots: 2, TotalSlots: 3,
			Speeds: []float64{1, 1, 0.5}, Payload: payload},
		&frame{Type: fSpawn, Task: 2, Name: "echo0", Machine: 1, Kind: kindEcho, Payload: payload},
		&frame{Type: fMsg, From: 1, To: 2, Tag: tagPing, Payload: ping},
		&frame{Type: fResult, Payload: summary},
	)
	f.Add(encodeFrames(f, join))
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame+1)
	f.Add(append(huge[:], stream[4:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.Write(data) //nolint:errcheck // the reader may stop early
			a.Close()
		}()
		c := newConn(b)
		// Every successful read consumes exactly one length-prefixed
		// frame, so off tracks the prefix of the frame being read.
		for off := 0; ; {
			_, err := c.read()
			if off+4 <= len(data) {
				n := binary.BigEndian.Uint32(data[off:])
				if err == nil && (n == 0 || n > maxFrame) {
					t.Fatalf("frame at %d with length %d accepted", off, n)
				}
				off += 4 + int(n)
			}
			if err != nil {
				break
			}
		}
		b.Close()
		<-done
	})
}
