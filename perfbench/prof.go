package main

// CPU-profile attribution by repository package. A traced run runs
// under runtime/pprof; the profile is decoded here (a minimal reader of
// the profile.proto fields this needs, so the benchmark stays
// stdlib-only) and every sample's CPU time is charged to one bucket:
//
//   - sync_mutex or math_pow when the sample's leaf-side run of
//     non-repository frames passes through sync.(*Mutex) or math.Pow,
//     the two costs the node-ownership work targets;
//   - otherwise the nearest repository frame's package (the
//     internal/<pkg> directory, "bench" for this command (package main,
//     or thermctl/perfbench in a test binary), "other" for
//     repository packages outside the named list), so standard-library
//     and runtime frames fold into their nearest repository caller;
//   - runtime when the stack holds no repository frame at all (GC
//     workers, the scheduler, net/http's own goroutines).
//
// The buckets partition the samples, so the shares sum to 100.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

const repoPrefix = "thermctl/internal/"

type profile struct {
	buf bytes.Buffer
}

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each of buckets' share of CPU time
// in percent. buckets are the declared prof.<bucket>_pct metrics: the
// named repository packages and bench, other, runtime, sync_mutex and
// math_pow.
func (p *profile) stop(buckets []string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	stacks, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return attribute(stacks, buckets), nil
}

// stack is one profile sample: its frames leaf first, and its CPU time.
type stack struct {
	frames []string
	value  int64
}

// attribute charges every stack to one bucket and returns the shares.
func attribute(stacks []stack, buckets []string) map[string]float64 {
	named := map[string]bool{}
	shares := map[string]float64{}
	for _, b := range buckets {
		named[b] = true
		shares[b] = 0
	}
	var total int64
	by := map[string]int64{}
	for _, s := range stacks {
		by[bucketOf(s.frames, named)] += s.value
		total += s.value
	}
	if total == 0 {
		return shares
	}
	for b, v := range by {
		shares[b] = 100 * float64(v) / float64(total)
	}
	return shares
}

func bucketOf(frames []string, named map[string]bool) string {
	mutex, pow := false, false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, repoPrefix):
			pkg := f[len(repoPrefix):]
			pkg = pkg[:strings.IndexAny(pkg, "/.")]
			switch {
			case mutex:
				return "sync_mutex"
			case pow:
				return "math_pow"
			case named[pkg]:
				return pkg
			}
			return "other"
		case strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "thermctl/perfbench."):
			if mutex {
				return "sync_mutex"
			}
			if pow {
				return "math_pow"
			}
			return "bench"
		case strings.HasPrefix(f, "thermctl"):
			return "other"
		case strings.HasPrefix(f, "sync.(*Mutex)."):
			mutex = true
		case f == "math.Pow" || f == "math.pow":
			pow = true
		}
	}
	return "runtime"
}

// decodeProfile reads the samples of an uncompressed profile.proto
// message, resolving each location to its function names (inlined
// frames included, innermost first).
func decodeProfile(b []byte) ([]stack, error) {
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(sub, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, p)
				case 2:
					for _, x := range appendPacked(nil, v, p) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(sub, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		st := stack{value: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends one repeated varint field occurrence: either a
// single varint (v) or a packed run (p).
func appendPacked(dst []uint64, v uint64, p []byte) []uint64 {
	if p == nil {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited payload
// (nil for varints). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
