package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a decoded runtime/pprof CPU profile: each sample's stack
// as function names, leaf first.
type cpuProfile struct {
	stacks [][]string
}

// profileCPU runs fn under the CPU profiler and decodes the result.
func profileCPU(fn func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// parseProfile decodes the subset of profile.proto a CPU profile needs:
// samples (field 2), locations (4), functions (5) and the string table
// (6).
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	var samples [][]uint64        // location ids, leaf first
	locs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcs := map[uint64]int64{}   // function id -> name string index
	var counts []int64            // sample counts
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var ids []uint64
			var count int64 = 1
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						return pbPacked(b, func(x uint64) { ids = append(ids, x) })
					}
					ids = append(ids, v)
				case 2:
					take := func(x uint64) {
						if first {
							count, first = int64(x), false
						}
					}
					if b != nil {
						return pbPacked(b, take)
					}
					take(v)
				}
				return nil
			})
			samples = append(samples, ids)
			counts = append(counts, count)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for i, ids := range samples {
		var stack []string
		for _, l := range ids {
			for _, fn := range locs[l] {
				if n := funcs[fn]; n >= 0 && int(n) < len(strs) {
					stack = append(stack, strs[n])
				}
			}
		}
		for c := int64(0); c < counts[i]; c++ {
			p.stacks = append(p.stacks, stack)
		}
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or (for length-delimited fields)
// its bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return fmt.Errorf("pprof: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("pprof: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			b = b[min(8, len(b)):]
		case 5:
			b = b[min(4, len(b)):]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
	}
	return nil
}

func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("pprof: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pkgOf returns the package path of a function symbol
// ("spdier/internal/tcpsim.(*Conn).pktsInFlight" -> "spdier/internal/tcpsim").
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// simLayers are the simulator packages a profile sample can be charged
// to, by their import-path suffix.
const repoPrefix = "spdier/internal/"

// layerSelf charges each sample to the innermost simulator package on
// its stack (runtime and standard-library frames belong to the package
// that called them); samples with no simulator frame are charged to
// "runtime". It returns sample counts per layer and the total.
func (p *cpuProfile) layerSelf() (map[string]int, int) {
	out := map[string]int{}
	for _, st := range p.stacks {
		layer := "runtime"
		for _, fn := range st {
			if pkg := pkgOf(fn); strings.HasPrefix(pkg, repoPrefix) {
				layer = strings.TrimPrefix(pkg, repoPrefix)
				break
			}
		}
		out[layer]++
	}
	return out, len(p.stacks)
}

// share is the fraction of samples whose stack satisfies match.
func (p *cpuProfile) share(match func(stack []string) bool) float64 {
	if len(p.stacks) == 0 {
		return 0
	}
	n := 0
	for _, st := range p.stacks {
		if match(st) {
			n++
		}
	}
	return float64(n) / float64(len(p.stacks))
}

// hasFrame matches stacks with a frame whose symbol contains any of subs.
func hasFrame(subs ...string) func([]string) bool {
	return func(st []string) bool {
		for _, fn := range st {
			for _, s := range subs {
				if strings.Contains(fn, s) {
					return true
				}
			}
		}
		return false
	}
}

// hasPkg matches stacks with a frame in package pkg.
func hasPkg(pkg string) func([]string) bool {
	return func(st []string) bool {
		for _, fn := range st {
			if pkgOf(fn) == pkg {
				return true
			}
		}
		return false
	}
}

func both(a, b func([]string) bool) func([]string) bool {
	return func(st []string) bool { return a(st) && b(st) }
}
