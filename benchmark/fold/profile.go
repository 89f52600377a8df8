// Package fold turns a Go pprof profile into the benchmark's per-layer table.
// It decodes the profile protobuf itself (the standard library has no public
// decoder), keeping only what attribution needs: samples, their call stacks
// with inlined frames expanded, and function names and files.
package fold

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// Frame is one function on a sampled call stack.
type Frame struct {
	Func string
	File string
}

// Sample is one profile sample: its stack, leaf first, and its values in the
// order of Profile.SampleTypes.
type Sample struct {
	Stack  []Frame
	Values []int64
}

// Profile is a decoded pprof profile.
type Profile struct {
	// SampleTypes names each sample value, e.g. "cpu" or "alloc_space".
	SampleTypes []string
	Samples     []Sample
}

// ValueIndex returns the index of the named sample type, or -1.
func (p *Profile) ValueIndex(name string) int {
	for i, t := range p.SampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// Total sums the named sample value over all samples; 0 when the profile has
// no such value.
func (p *Profile) Total(name string) int64 {
	i := p.ValueIndex(name)
	if i < 0 {
		return 0
	}
	var sum int64
	for _, s := range p.Samples {
		sum += s.Values[i]
	}
	return sum
}

// Parse decodes a profile in the pprof protobuf format, gzip-compressed (as
// runtime/pprof writes it) or not.
func Parse(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fold: read profile: %w", err)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("fold: gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("fold: gunzip profile: %w", err)
		}
	}
	return decode(data)
}

// Field numbers of profile.proto used here.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
	funcFile = 4
)

type rawSample struct {
	locs []uint64
	vals []int64
}

type rawFunc struct{ name, file uint64 }

func decode(data []byte) (*Profile, error) {
	var (
		typeIdx []uint64
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err := walk(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profSampleType:
			var t uint64
			if err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == valueTypeType {
					t = v
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case profSample:
			var s rawSample
			if err := walk(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case sampleLocation:
					s.locs = appendPacked(s.locs, v, pb)
				case sampleValue:
					for _, u := range appendPacked(nil, v, pb) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			if err := walk(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return walk(lb, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case profFunction:
			var id uint64
			var fn rawFunc
			if err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					fn.name = v
				case funcFile:
					fn.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = fn
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &Profile{}
	for _, t := range typeIdx {
		p.SampleTypes = append(p.SampleTypes, str(t))
	}
	for _, rs := range samples {
		if len(rs.vals) != len(p.SampleTypes) {
			return nil, fmt.Errorf("fold: sample has %d values for %d sample types", len(rs.vals), len(p.SampleTypes))
		}
		s := Sample{Values: rs.vals}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				s.Stack = append(s.Stack, Frame{Func: str(fn.name), File: str(fn.file)})
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either packed
// (b != nil) or as a single unpacked value v.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("fold: truncated profile")

// walk calls fn for every field of a protobuf message: varint fields with
// their value, length-delimited fields with their bytes (b is nil for
// anything else). Fixed-width fields are skipped.
func walk(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = varint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := varint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("fold: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the bytes
// consumed (0 on truncation).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
