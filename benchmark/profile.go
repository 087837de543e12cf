package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// foldCPUProfile decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and counts its samples per module: each sample goes to
// the innermost valora/internal frame of its stack (inlined frames
// included), or to "runtime" when it has none. It reads only the
// fields it needs of the profile.proto messages Profile, Sample,
// Location, Line and Function.
func foldCPUProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function → string-table index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id, packed or not
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return varints(b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // Sample.value; the first is the sample count
					if b == nil {
						if s.count == 0 {
							s.count = int64(v)
						}
						return nil
					}
					first := true
					return varints(b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make(map[string]int64)
	for _, s := range samples {
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					if m := moduleOf(strs[i]); m != "" {
						mod = m
						break stack
					}
				}
			}
		}
		out[mod] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the fields of one protobuf message. Varint and fixed
// fields arrive as v with b nil; length-delimited fields as b.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch tag & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):] // non-nil even when empty
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", tag&7)
		}
		if err := fn(int(tag>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a packed run of varints.
func varints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
