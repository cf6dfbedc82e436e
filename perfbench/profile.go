package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// profGroups maps each prof.* metric to the Go package whose CPU time it
// sums. A sample is charged to the innermost frame on its stack that
// belongs to one of these packages, so standard-library and runtime code a
// layer calls (sorting, copying) counts as that layer's; a sample with an
// allocation or GC entry point on its stack is prof.go-gc instead (see
// gcRoots). Samples reaching none of these are charged to their leaf
// function's package.
var profGroups = []struct{ metric, pkg string }{
	{"prof.perfmodel", "tpusim/internal/perfmodel"},
	{"prof.latency", "tpusim/internal/latency"},
	{"prof.des", "tpusim/internal/des"},
	{"prof.heap", "container/heap"},
	{"prof.stats", "tpusim/internal/stats"},
	{"prof.cluster", "tpusim/internal/cluster"},
	{"prof.serve", "tpusim/internal/serve"},
	{"prof.runtime", "tpusim/internal/runtime"},
	{"prof.tpu", "tpusim/internal/tpu"},
	{"prof.systolic", "tpusim/internal/systolic"},
	{"prof.memory", "tpusim/internal/memory"},
	{"prof.compiler", "tpusim/internal/compiler"},
}

// gcRoots are the Go runtime entry points of allocation and garbage
// collection: a sample with any of them on its stack is prof.go-gc time.
var gcRoots = map[string]bool{
	"runtime.mallocgc":          true,
	"runtime.growslice":         true,
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// goGC is the owner name of allocation and GC samples.
const goGC = "go-gc"

// share is one owner's or function's fraction of the CPU samples.
type share struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

// profileSummary is the traced children's CPU profiles summed together.
type profileSummary struct {
	Profiles int   `json:"profiles"`
	Samples  int64 `json:"samples"`
	// Owners are CPU shares by owning package (see profGroups) plus
	// go-gc, largest first.
	Owners []share `json:"owners"`
	// Top are the three functions with the most self (leaf) time.
	Top []share `json:"top_functions"`
}

// ownerShare is one owner's share (0 when absent).
func (p *profileSummary) ownerShare(name string) float64 {
	for _, s := range p.Owners {
		if s.Name == name {
			return s.Share
		}
	}
	return 0
}

// metrics lists every prof.* per-layer metric in percent.
func (p *profileSummary) metrics() []metric {
	var out []metric
	for _, g := range profGroups {
		out = append(out, metric{g.metric, p.ownerShare(g.pkg) * 100, "%"})
	}
	return append(out,
		metric{"prof.go-gc", p.ownerShare(goGC) * 100, "%"},
		metric{"prof.samples", float64(p.Samples), "count"})
}

// ledBy states whether the named packages together own more CPU time
// than any single other owner.
func (p *profileSummary) ledBy(workload string, pkgs ...string) string {
	named := map[string]bool{}
	sum := 0.0
	var short []string
	for _, pkg := range pkgs {
		named[pkg] = true
		sum += p.ownerShare(pkg)
		short = append(short, strings.TrimPrefix(pkg, "tpusim/internal/"))
	}
	next := share{Name: "none"}
	for _, s := range p.Owners {
		if !named[s.Name] {
			next = s
			break
		}
	}
	verdict := "holds"
	if sum <= next.Share {
		verdict = "DOES NOT HOLD"
	}
	return fmt.Sprintf("%s led by %s: %s (%.1f%% of CPU; largest other owner %s %.1f%%)",
		workload, strings.Join(short, "+"), verdict, sum*100, next.Name, next.Share*100)
}

// owner is the package a sample's CPU time is charged to.
func owner(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return goGC
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		for _, g := range profGroups {
			if g.pkg == pkg {
				return pkg
			}
		}
	}
	return packageOf(stack[0])
}

// summarizeProfiles reads and sums the traced children's CPU profiles.
func summarizeProfiles(traced []sample) (*profileSummary, error) {
	owners := map[string]int64{}
	funcs := map[string]int64{}
	var total int64
	sum := &profileSummary{}
	for _, s := range traced {
		prof, err := readProfile(s.Profile)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", s.Profile, err)
		}
		sum.Profiles++
		for _, smp := range prof.samples {
			if len(smp.stack) == 0 {
				continue
			}
			total += smp.value
			sum.Samples += smp.count
			funcs[smp.stack[0]] += smp.value
			owners[owner(smp.stack)] += smp.value
		}
	}
	if total > 0 {
		sum.Owners = ranked(owners, total, 0)
		sum.Top = ranked(funcs, total, 3)
	}
	return sum, nil
}

// ranked turns totals into shares, largest first; n > 0 keeps the top n.
func ranked(m map[string]int64, total int64, n int) []share {
	out := make([]share, 0, len(m))
	for k, v := range m {
		out = append(out, share{k, float64(v) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// packageOf is the import path of a symbolized Go function name, e.g.
// "tpusim/internal/des.(*Loop).Run" -> "tpusim/internal/des".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuSample is one profile sample: its stack of function names, leaf
// first (inlined frames expanded), its sample count and CPU nanoseconds.
type cpuSample struct {
	stack        []string
	count, value int64
}

type cpuProfile struct{ samples []cpuSample }

// readProfile decodes the gzipped protobuf a runtime/pprof CPU profile is
// written as (github.com/google/pprof's profile.proto), keeping only what
// the summary needs: samples, locations, functions and strings.
func readProfile(path string) (*cpuProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
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
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{count: s.values[0], value: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				cs.stack = append(cs.stack, name(fid))
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values: one value when
// the field came unpacked (b nil), every varint in b when packed.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
