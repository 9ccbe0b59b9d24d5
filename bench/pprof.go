package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the gzipped profile.proto that runtime/pprof writes:
// just enough to attribute each CPU sample to the function of its leaf
// frame. Field numbers are those of github.com/google/pprof's profile.proto.

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	value uint64 // varint and fixed fields
	bytes []byte // length-delimited fields
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// protoFields splits one message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		tag, n := readVarint(b)
		if n == 0 {
			return nil, fmt.Errorf("pprof: bad tag")
		}
		b = b[n:]
		f := protoField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			v, n := readVarint(b)
			if n == 0 {
				return nil, fmt.Errorf("pprof: bad varint")
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("pprof: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field in either encoding.
func repeatedVarints(f protoField, into []uint64) []uint64 {
	if f.wire == 0 {
		return append(into, f.value)
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			break
		}
		into, b = append(into, v), b[n:]
	}
	return into
}

// leafSamples decodes a CPU profile into leaf function name -> sample value
// (the last value column: CPU nanoseconds).
func leafSamples(gz []byte) (map[string]uint64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strtab []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		leaf  uint64
		value uint64
	}
	var samples []sample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 6: // string_table
			strtab = append(strtab, string(f.bytes))
		case 5: // function: id=1 name=2
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.value
				case 2:
					name = x.value
				}
			}
			funcName[id] = name
		case 4: // location: id=1 line=4 (first line is the innermost frame)
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seen := false
			for _, x := range fs {
				switch {
				case x.num == 1:
					id = x.value
				case x.num == 4 && !seen:
					ls, err := protoFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn, seen = l.value, true
						}
					}
				}
			}
			locFunc[id] = fn
		case 2: // sample: location_id=1 value=2
			fs, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					locs = repeatedVarints(x, locs)
				case 2:
					vals = repeatedVarints(x, vals)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: vals[len(vals)-1]})
			}
		}
	}
	out := map[string]uint64{}
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strtab)) {
			name = strtab[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// pcBucket names the budget bucket of one function, by name prefix.
func pcBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "serfi/internal/mach.(*Machine).fetch"):
		return "mach_fetch"
	case strings.HasPrefix(fn, "serfi/internal/mach."):
		return "mach_execute"
	case strings.HasPrefix(fn, "serfi/internal/cache."):
		return "cache"
	case strings.HasPrefix(fn, "serfi/internal/mem."):
		return "mem"
	case strings.HasPrefix(fn, "serfi/internal/isa"):
		return "isa"
	case strings.HasPrefix(fn, "runtime.memclr"):
		return "runtime_memclr"
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.(*gc"),
		strings.HasPrefix(fn, "runtime.scan"), strings.HasPrefix(fn, "runtime.mark"),
		strings.HasPrefix(fn, "runtime.greyobject"), strings.HasPrefix(fn, "runtime.sweep"),
		strings.HasPrefix(fn, "runtime.(*sweep"), strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.(*mspan).sweep"), strings.HasPrefix(fn, "runtime.findObject"):
		return "runtime_gc"
	}
	return "other"
}

// pcBuckets are the shares pcShares reports, all present even when zero.
var pcBuckets = []string{"mach_execute", "mach_fetch", "cache", "mem", "isa", "runtime_memclr", "runtime_gc", "other"}

// pcShares attributes a CPU profile's samples to the budget buckets.
func pcShares(gz []byte) (map[string]float64, error) {
	leaves, err := leafSamples(gz)
	if err != nil {
		return nil, err
	}
	total := uint64(0)
	sums := map[string]uint64{}
	for fn, v := range leaves {
		sums[pcBucket(fn)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: profile holds no samples")
	}
	out := map[string]float64{}
	for _, b := range pcBuckets {
		out[b] = float64(sums[b]) / float64(total)
	}
	return out, nil
}
