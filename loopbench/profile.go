package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame is one function activation in a sampled stack.
type frame struct {
	Func string // fully qualified name, e.g. "github.com/x/y/pkg.(*T).M"
	File string // source file path as recorded by the compiler
}

// stackSample is one distinct stack of a CPU profile with its sample
// count. Frames run leaf first; inlined calls appear as their own
// frames, innermost first, exactly as the profile records them.
type stackSample struct {
	Frames []frame
	Count  int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes and returns its stacks. It decodes only the fields the layer
// attribution needs (samples, locations, functions, strings); the
// standard library ships no public decoder for the format.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	type function struct{ name, file uint64 }
	var (
		samples   []rawSample
		strs      []string
		funcs     = map[uint64]function{}
		locations = map[uint64][]uint64{} // location ID → function IDs, innermost first
	)
	err = walkFields(raw, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := walkFields(sub, func(num int, v uint64, sub []byte) error {
				var err error
				switch num {
				case 1: // Sample.location_id
					s.locs, err = appendVarints(s.locs, v, sub)
				case 2: // Sample.value
					s.values, err = appendVarints(s.values, v, sub)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := walkFields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return walkFields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var f function
			err := walkFields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					f.name = v
				case 4: // Function.filename
					f.file = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{Count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				f := funcs[fid]
				st.Frames = append(st.Frames, frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// walkFields calls fn for every field of one protobuf message. Varint
// fields arrive in v, length-delimited ones in sub; fixed-width fields
// are skipped, since profile.proto's decoded fields use neither.
func walkFields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which the encoder
// writes either as one varint per field (v) or packed (sub).
func appendVarints(dst []uint64, v uint64, sub []byte) ([]uint64, error) {
	if sub == nil {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst, nil
}
