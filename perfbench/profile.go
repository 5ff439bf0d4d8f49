package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// The traced run profiles the CPU with runtime/pprof and charges every
// sample to a module. Timed units run under the pprof label unitLabel and
// only labelled samples count, so the untimed checks and collections
// between units are left out. The GC's background mark workers carry no
// label either: gc.cpu_share is the collection work done on the units' own
// goroutines (assists and sweeping at allocation).
const (
	unitLabel = "perfbench"
	unitValue = "unit"
)

// labelled runs fn under the unit label when on.
func labelled(on bool, fn func()) {
	if !on {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(unitLabel, unitValue), func(context.Context) { fn() })
}

type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it to path for `go tool pprof`, and returns
// the per-module CPU shares.
func (p *profiler) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return cpuShares(p.buf.Bytes())
}

// cpuShares charges each sample to one bucket and returns each bucket's
// share of all charged CPU time, keyed "<bucket>.cpu_share". A sample goes
// to gc when a GC function is on its stack, else to syscall when a system
// call is, else to the innermost repro/internal module on its stack (so
// runtime and standard-library time counts against the module that called
// it), else to other.
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.labels[unitLabel] != unitValue {
			continue
		}
		b := bucket(s.stack)
		byBucket[b] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, pm := range perLayer {
		if strings.HasSuffix(pm.name, ".cpu_share") {
			out[pm.name] = 0
		}
	}
	if total == 0 {
		return out, nil
	}
	for b, v := range byBucket {
		out[b+".cpu_share"] = float64(v) / float64(total)
	}
	return out, nil
}

func bucket(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.deductSweepCredit") {
			return "gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
			strings.HasPrefix(fn, "runtime/internal/syscall.") {
			return "syscall"
		}
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "other"
}

// moduleOf maps a function name to its repro/internal module, or "".
func moduleOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// sample is one profile sample: its stack (leaf first), CPU nanoseconds and
// string labels.
type sample struct {
	stack  []string
	value  int64
	labels map[string]string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes,
// reading only the fields the module attribution needs. It uses the
// standard library alone: the protobuf wire format is walked by hand.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	type line struct{ fn uint64 }
	var (
		strs      []string
		samples   []rawSample
		locations = map[uint64][]line{}
		functions = map[uint64]int64{}
	)
	err = fields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					for _, x := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					err := fields(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locations[id] = lines
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		s := sample{labels: map[string]string{}}
		// CPU profiles carry [samples, nanoseconds]; charge nanoseconds.
		if n := len(rs.values); n > 0 {
			s.value = rs.values[n-1]
		}
		for _, l := range rs.labels {
			s.labels[str(l[0])] = str(l[1])
		}
		// Within a location, inlined callees come before their callers.
		for _, loc := range rs.locs {
			for _, l := range locations[loc] {
				s.stack = append(s.stack, str(functions[l.fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
