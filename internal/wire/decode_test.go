package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// referenceDecode is DecodeBatch as it was before the single-pass
// parser: json.Unmarshal, then Validate.
func referenceDecode(data []byte) (Batch, error) {
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		return Batch{}, fmt.Errorf("wire: decode batch: %w", err)
	}
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// sameBatch reports whether a and b are equal field by field, floats
// bit for bit and a nil slice distinct from an empty one.
func sameBatch(a, b Batch) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// checkDecodeParity asserts DecodeBatch(data) gives referenceDecode's
// verdict, error text and Batch, and that whatever the single-pass
// parser accepts json.Unmarshal decodes to the same Batch.
func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceDecode(data)
	got, gotErr := DecodeBatch(data)
	switch {
	case (wantErr != nil) != (gotErr != nil):
		t.Fatalf("verdict mismatch on %q: reference %v, DecodeBatch %v", data, wantErr, gotErr)
	case wantErr != nil && wantErr.Error() != gotErr.Error():
		t.Fatalf("error text on %q: reference %q, DecodeBatch %q", data, wantErr, gotErr)
	case !sameBatch(want, got):
		t.Fatalf("batch mismatch on %q\nreference:   %+v\nDecodeBatch: %+v", data, want, got)
	}
	if fast, ok := decodeCanonical(data); ok {
		var ref Batch
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("single pass accepted %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !sameBatch(ref, fast) {
			t.Fatalf("single pass on %q\njson.Unmarshal: %+v\nsingle pass:    %+v", data, ref, fast)
		}
	}
}

// TestDecodeBatchMatchesUnmarshal is the decoder's parity property over
// appender output: the same verdict, error text and Batch as
// json.Unmarshal + Validate, and every batch whose strings needed no
// escaping (the appender wrote no backslash) takes the single pass.
func TestDecodeBatchMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	batches := []Batch{fullBatch(), benchBatch(), mixedBatch(), {}}
	for i := 0; i < 3000; i++ {
		batches = append(batches, randBatch(rng))
	}
	for _, b := range batches {
		data, err := AppendBatchJSON(nil, &b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeCanonical(data); !ok && !bytes.Contains(data, []byte{'\\'}) {
			t.Fatalf("plain batch fell back to encoding/json: %s", data)
		}
		checkDecodeParity(t, data)
	}
	for _, b := range []Batch{fullBatch(), mixedBatch()} {
		data, _ := AppendBatchJSON(nil, &b)
		if got, err := DecodeBatch(data); err != nil || !sameBatch(got, b) {
			t.Fatalf("valid batch round trip: %v\n got %+v\nwant %+v", err, got, b)
		}
	}
}

// TestDecodeBatchDoesNotAliasInput pins that a decoded batch owns its
// strings: the router keeps the body it decoded and the replayer reuses
// its line buffer.
func TestDecodeBatchDoesNotAliasInput(t *testing.T) {
	b := fullBatch()
	b.Heartbeats[0].Firmware = "fw-é/2"
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeCanonical(data); !ok {
		t.Fatalf("canonical batch fell back to encoding/json: %s", data)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if !sameBatch(got, b) {
		t.Fatalf("batch changed with its input\n got %+v\nwant %+v", got, b)
	}
}

// TestDecodeBatchConcurrent decodes from several goroutines at once:
// decoders share pooled scratch, and no batch may see another's records.
func TestDecodeBatchConcurrent(t *testing.T) {
	batches := []Batch{fullBatch(), mixedBatch(), benchBatch()}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(want Batch) {
			defer wg.Done()
			data, err := EncodeBatch(want)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				if got, err := DecodeBatch(data); err != nil || !sameBatch(got, want) {
					t.Errorf("concurrent decode: %v\n got %+v\nwant %+v", err, got, want)
					return
				}
			}
		}(batches[g%len(batches)])
	}
	wg.Wait()
}

// FuzzDecodeBatchJSON is the differential fuzz target: on every input
// DecodeBatch agrees with json.Unmarshal + Validate.
func FuzzDecodeBatchJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	seeds := []Batch{fullBatch(), mixedBatch(), {Node: 1, SentAt: 1}}
	for i := 0; i < 8; i++ {
		seeds = append(seeds, randBatch(rng))
	}
	for _, b := range seeds {
		data, _ := AppendBatchJSON(nil, &b)
		f.Add(data)
	}
	canon, _ := EncodeBatch(fullBatch())
	c := string(canon)
	const env = `{"node":1,"seq_no":2,"sent_at":3`
	for _, s := range []string{
		" " + c, c + " ", c + "\n", c + "x", c + "}",
		strings.Replace(c, `"node":`, `"node": `, 1),
		strings.Replace(c, `"seq_no"`, `"SEQ_NO"`, 1),
		strings.Replace(c, `"type":"HELLO"`, `"type":"\u0041"`, 1),
		strings.Replace(c, `"sent_at":1234.5`, `"sent_at":1e400`, 1),
		strings.Replace(c, `"sent_at":1234.5`, `"sent_at":1.2345E3`, 1),
		strings.Replace(c, `"seq_no":99`, `"seq_no":099`, 1),
		strings.Replace(c, `"sent_at":1234.5`, `"sent_at":01234.5`, 1),
		strings.Replace(c, `"seq_no":99`, `"seq_no":-0`, 1),
		strings.Replace(c, `"seq_no":99`, `"seq_no":99.0`, 1),
		strings.Replace(c, `"size_bytes":23`, `"size_bytes":-0`, 1),
		strings.Replace(c, `"for_us":true`, `"for_us":false`, 1),
		strings.Replace(c, `"ttl":1,`, `"ttl":256,`, 1),
		strings.Replace(c, `"size_bytes":23`, `"size_bytes":-9223372036854775808`, 1),
		strings.Replace(c, `"size_bytes":23`, `"size_bytes":-9223372036854775809`, 1),
		env + `}`, env + `,"node":2}`, env + `,"packets":null}`, env + `,"packets":[]}`,
		env + `,"routes":[{"ts":1,"node":1,"routes":null}]}`,
		env + `,"routes":[{"ts":1,"node":1,"routes":[]}]}`,
		env + `,"heartbeats":[{"ts":1,"node":1,"uptime_s":0,"firmware":"a\"b"}]}`,
		env + `,"heartbeats":[{"ts":1,"node":1,"uptime_s":0,"firmware":"` + "\xff" + `"}]}`,
		env + `,"heartbeats":[{"ts":1,"node":1,"uptime_s":0,"firmware":"` + "\x01" + `"}]}`,
		env + `,"heartbeats":[{"ts":1,"node":1,"uptime_s":0,"firmware":"` + "\u00e9\u2028<>" + `"}]}`,
		`{"node":65536,"seq_no":18446744073709551616,"sent_at":1}`,
		`{"node":1,"seq_no":18446744073709551615,"sent_at":-0}`,
		`null`, `{}`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeParity(t, data) })
}
