package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"reflect"
	"testing"

	"lorameshmon/internal/wire"
)

func batchLine(t *testing.T, seq uint64) []byte {
	t.Helper()
	line, err := wire.EncodeBatch(wire.Batch{Node: 7, SeqNo: seq, SentAt: float64(seq)})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestReplayLineLimits: a line of exactly wire.MaxBatchBytes replays, a
// longer one is skipped and counted failed like a malformed one, and
// neither stops the lines after it.
func TestReplayLineLimits(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	padded := batchLine(t, 2)
	padded = append(padded, bytes.Repeat([]byte{' '}, wire.MaxBatchBytes-len(padded))...)
	var in bytes.Buffer
	for _, line := range [][]byte{
		batchLine(t, 1),
		padded,
		append(padded, ' '),
		[]byte("{not json"),
		nil,
		append(batchLine(t, 3), '\r'),
	} {
		in.Write(line)
		in.WriteByte('\n')
	}
	in.Write(batchLine(t, 4)) // last line, no newline
	var seqs []uint64
	sent, failed, err := replay(&in, func(b wire.Batch) error {
		seqs = append(seqs, b.SeqNo)
		return nil
	}, 0, 0)
	if err != nil || sent != 4 || failed != 2 {
		t.Fatalf("replay = %d sent, %d failed, %v; want 4, 2, nil", sent, failed, err)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("sent seqs %v, want [1 2 3 4]", seqs)
	}
}
