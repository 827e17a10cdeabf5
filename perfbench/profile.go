package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// hostLayers are the layers host CPU time is charged to, in report order.
// Each becomes the per-layer metric <layer>_s.
var hostLayers = []string{
	"sim.heap", "sim.proc", "sim.shard",
	"ethernet", "aoe", "vblade", "core", "mediator", "hw", "guest", "cpuvirt", "cloud", "metrics",
	"runtime.gc", "runtime.sched",
}

// pkgLayer maps a repro/internal package (its first path element) to its
// layer. Packages that only assemble hardware or scenarios are charged to
// the layer they build for; a package missing here is charged to cloud,
// the scenario layer.
var pkgLayer = map[string]string{
	"ethernet": "ethernet",
	"aoe":      "aoe",
	"vblade":   "vblade",
	"core":     "core",
	"mediator": "mediator",
	"hw":       "hw", "machine": "hw", "firmware": "hw", "baseline": "hw",
	"guest": "guest", "workload": "guest",
	"cpuvirt": "cpuvirt",
	"cloud":   "cloud", "tenants": "cloud", "faults": "cloud", "testbed": "cloud", "experiments": "cloud",
	"metrics": "metrics", "trace": "metrics", "obs": "metrics", "report": "metrics",
}

// simFiles splits the sim package by source file: the event heap, process
// handoff, and the shard executor. TestSimFilesMapped pins that every
// source file of the package is listed.
var simFiles = map[string]string{
	"kernel.go": "sim.heap", "time.go": "sim.heap",
	"proc.go": "sim.proc", "sync.go": "sim.proc",
	"shard.go": "sim.shard",
}

const internalPrefix = "repro/internal/"

// frame is one profile frame: a function and the source file it is in.
type frame struct {
	Func, File string
}

// layerOf charges one profile sample, given as frames from the innermost
// outwards, to a layer: the layer of its innermost repro/internal frame,
// so runtime work (channel operations, allocation, GC assists) done on a
// layer's behalf is that layer's. A sample with no repro/internal frame is
// the Go runtime's own: garbage collection or scheduling.
func layerOf(stack []frame) string {
	for _, fr := range stack {
		if !strings.HasPrefix(fr.Func, internalPrefix) {
			continue
		}
		rest := fr.Func[len(internalPrefix):]
		slash := strings.LastIndexByte(rest, '/')
		dot := strings.IndexByte(rest[slash+1:], '.')
		if dot < 0 {
			continue
		}
		top, _, _ := strings.Cut(rest[:slash+1+dot], "/")
		if top == "sim" {
			if l, ok := simFiles[filepath.Base(fr.File)]; ok {
				return l
			}
			return "sim.heap"
		}
		if l, ok := pkgLayer[top]; ok {
			return l
		}
		return "cloud"
	}
	for _, fr := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fr.Func, gc) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// gcFrames are name prefixes of the runtime's collector entry points.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.sweepone",
	"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*mheap).reclaim",
}

// cpuSample is one CPU profile sample: its stack, innermost frame first,
// and the CPU time it stands for.
type cpuSample struct {
	Stack []frame
	Nanos int64
}

// attribute sums samples into per-layer seconds. Every sample lands in
// exactly one layer, so the layers sum to the profile total.
func attribute(samples []cpuSample) (perLayer map[string]float64, total float64) {
	ns := make(map[string]int64, len(hostLayers))
	var all int64
	for _, s := range samples {
		ns[layerOf(s.Stack)] += s.Nanos
		all += s.Nanos
	}
	perLayer = make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		perLayer[l] = float64(ns[l]) / 1e9
	}
	return perLayer, float64(all) / 1e9
}

// readProfile lists a CPU profile's samples with the Go toolchain's pprof.
func readProfile(path string) ([]cpuSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-lines", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces reads the listing of `go tool pprof -traces -lines`: a
// header that gives the total CPU time, then one block per sample, each
// opened by a dashed line. A block's first line starts with the sample's
// CPU time, and each of its lines names one frame, innermost first, as
// "function file:line", with "(inline)" after an inlined one.
func parseTraces(listing string) ([]cpuSample, error) {
	var samples []cpuSample
	var total, listed int64
	opened := false
	for _, line := range strings.Split(listing, "\n") {
		text := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(text, "-----------+"):
			opened = true
		case len(samples) == 0 && !opened:
			if _, t, ok := strings.Cut(text, "Total samples = "); ok {
				v, _, _ := strings.Cut(t, " ")
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("pprof listing: total: %w", err)
				}
				total = d.Nanoseconds()
			}
		case text == "":
		default:
			if opened {
				v, rest, _ := strings.Cut(text, " ")
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("pprof listing: sample %d: %w", len(samples)+1, err)
				}
				samples = append(samples, cpuSample{Nanos: d.Nanoseconds()})
				listed += d.Nanoseconds()
				text, opened = strings.TrimSpace(rest), false
			}
			text = strings.TrimSuffix(text, " (inline)")
			fr := frame{Func: text}
			if i := strings.LastIndexByte(text, ' '); i >= 0 {
				fr.Func = text[:i]
				fr.File, _, _ = strings.Cut(text[i+1:], ":")
			}
			s := &samples[len(samples)-1]
			s.Stack = append(s.Stack, fr)
		}
	}
	// The listing leaves out samples with an empty stack. What they add
	// to the total is kept as one sample without frames, so the samples
	// sum to the profile's total.
	if total > listed {
		samples = append(samples, cpuSample{Nanos: total - listed})
	}
	return samples, nil
}
