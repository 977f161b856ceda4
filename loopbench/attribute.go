package main

import (
	"path"
	"strings"
)

// internalPrefix is the import-path prefix of loopscope's packages.
const internalPrefix = "github.com/mssn/loopscope/internal/"

// Per-layer report rows, in pipeline order. Every profile sample lands
// on exactly one row, so the rows sum to the profiled CPU.
const (
	rowGC           = "runtime.gc"
	rowUnattributed = "unattributed"
)

var layerRows = []string{
	"deploy", "uesim", "radio", "sig.emit", "faults", "sig.parse", "trace",
	"core.detect", "core.classify", "core.predict", "throughput",
	"experiments", "campaign", rowGC, rowUnattributed,
}

// layerPackages maps each layer package (relative to internalPrefix)
// to its row. Packages absent here — the helper packages cell, rrc,
// meas, geo, band, units, stats, policy, device, obs and viz, the Go
// runtime, the standard library and the benchmark itself — are not
// layers: their frames are charged to the nearest layer frame above.
var layerPackages = map[string]string{
	"deploy":      "deploy",
	"uesim":       "uesim",
	"radio":       "radio",
	"faults":      "faults",
	"trace":       "trace",
	"throughput":  "throughput",
	"experiments": "experiments",
	"campaign":    "campaign",
}

// layerFiles splits sig and core into rows by source file. Files of
// those packages missing here (sig.go's shared format vocabulary) are
// treated like helpers and charged to their caller.
var layerFiles = map[string]string{
	"sig/emit.go":      "sig.emit",
	"sig/parse.go":     "sig.parse",
	"sig/scan.go":      "sig.parse",
	"sig/bscan.go":     "sig.parse",
	"core/detect.go":   "core.detect",
	"core/stream.go":   "core.detect",
	"core/classify.go": "core.classify",
	"core/predict.go":  "core.predict",
}

// gcRoots are the goroutine entry points of the collector's own
// workers. GC assists run on the allocating goroutine and so stay
// with the layer that allocated.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true, // samples taken inside the collector without a Go stack
}

// attribute charges one stack (leaf first) to its row: the innermost
// frame that belongs to a layer, else runtime.gc for collector
// workers, else unattributed.
func attribute(frames []frame) string {
	for _, f := range frames {
		if row, ok := layerOf(f); ok {
			return row
		}
	}
	for _, f := range frames {
		if gcRoots[f.Func] {
			return rowGC
		}
	}
	return rowUnattributed
}

// layerOf reports the row of a frame in a layer package.
func layerOf(f frame) (string, bool) {
	pkg, ok := strings.CutPrefix(packageOf(f.Func), internalPrefix)
	if !ok {
		return "", false
	}
	if row, ok := layerPackages[pkg]; ok {
		return row, true
	}
	row, ok := layerFiles[pkg+"/"+path.Base(f.File)]
	return row, ok
}

// packageOf returns the import path of a fully qualified function
// name: "a/b/pkg.(*T).M" → "a/b/pkg". Type arguments of generic
// instantiations are dropped first, since they may contain paths.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// layerShares attributes every sample and returns each row's share of
// the total sample count (zero for rows without samples) and that
// total.
func layerShares(samples []stackSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[attribute(s.Frames)] += s.Count
		total += s.Count
	}
	shares := make(map[string]float64, len(layerRows))
	for _, row := range layerRows {
		if total > 0 {
			shares[row] = float64(counts[row]) / float64(total)
		} else {
			shares[row] = 0
		}
	}
	return shares, total
}
