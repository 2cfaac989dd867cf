package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The repository's packages live under this import path; a CPU sample is
// charged to the innermost frame on its stack that belongs to one.
const repoPkgPrefix = "lorameshmon/internal/"

// profileLayers are the packages reported as cpu_share.<pkg>, plus
// "runtime" (samples with no repository frame whose leaf is in the Go
// runtime, mostly GC) and "other" (the harness, net/http, syscalls).
var profileLayers = []string{
	"wire", "uplink", "collector", "wal", "tsdb", "readcache", "dashboard",
	"federate", "simkit", "radio", "phy", "mesh", "agent", "node", "alert",
	"metrics", "runtime", "other",
}

// attributeCPU decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time.
func attributeCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	ns := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		ns[p.layerOf(s.locs)] += v
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for k, v := range ns {
		shares[k] = float64(v) / float64(total)
	}
	return shares, nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples []pprofSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost first
	fnName  map[uint64]int64    // function id -> string table index
	strs    []string
}

// layerOf names the layer a stack (leaf first) is charged to.
func (p *pprofProfile) layerOf(locs []uint64) string {
	leafRuntime := false
	for i, l := range locs {
		for j, f := range p.locFns[l] {
			name := p.str(p.fnName[f])
			if rest, ok := strings.CutPrefix(name, repoPkgPrefix); ok {
				if k := strings.IndexAny(rest, "./"); k > 0 {
					rest = rest[:k]
				}
				return rest
			}
			if i == 0 && j == 0 && strings.HasPrefix(name, "runtime.") {
				leafRuntime = true
			}
		}
	}
	if leafRuntime {
		return "runtime"
	}
	return "other"
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile reads the fields of profile.proto the attribution needs:
// samples (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(field int, wt int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s pprofSample
			err := eachField(data, func(f int, wt int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendUvarints(s.locs, wt, v, d)
				case 2:
					for _, x := range appendUvarints(nil, wt, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, wt int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return eachField(d, func(f int, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f int, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendUvarints appends a repeated uint64 field that may be packed.
func appendUvarints(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with the field number,
// wire type and either the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(field, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

var uvarint = binary.Uvarint
