package tape_test

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"repro/internal/tape"
)

// FuzzDecode: Decode returns an error, never a panic, on any input, and
// a tape it accepts sizes its Replayer from what the input holds, not
// from what its header claims. Each input is decoded as given and again
// with its sha256 trailer re-sealed, so mutations reach the parser
// instead of stopping at the hash check. The seed corpus under
// testdata/fuzz/FuzzDecode holds a compress/1 recording and two crafted
// tapes with valid trailers: a huge class count and a huge allocation
// count.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeBounded(t, b)
		if len(b) >= sha256.Size {
			body := b[: len(b)-sha256.Size : len(b)-sha256.Size]
			sum := sha256.Sum256(body)
			decodeBounded(t, append(body, sum[:]...))
		}
	})
}

// decodeBounded decodes b and, if it is accepted, checks that building
// a Replayer allocates O(len(b)).
func decodeBounded(t *testing.T, b []byte) {
	tp, err := tape.Decode(b)
	if err != nil {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tape.NewReplayer(tp)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(b)+64<<10); got > limit {
		t.Fatalf("NewReplayer allocated %d bytes for a %d-byte tape (limit %d)", got, len(b), limit)
	}
}
