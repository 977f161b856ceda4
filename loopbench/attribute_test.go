package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const mod = "github.com/mssn/loopscope/internal/"

// stack builds a leaf-first synthetic stack from "func@file" entries.
func stack(entries ...string) []frame {
	out := make([]frame, len(entries))
	for i, e := range entries {
		fn, file, _ := strings.Cut(e, "@")
		out[i] = frame{Func: fn, File: file}
	}
	return out
}

func TestAttributeRule(t *testing.T) {
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"innermost layer wins", stack(
			mod+"radio.(*Field).RSRP@/src/internal/radio/field.go",
			mod+"uesim.(*engine).measure@/src/internal/uesim/sa.go",
			mod+"campaign.runOnce@/src/internal/campaign/campaign.go"), "radio"},
		{"helper charged to its caller layer", stack(
			mod+"cell.Set.Key@/src/internal/cell/cell.go",
			mod+"trace.(*extractor).step@/src/internal/trace/trace.go"), "trace"},
		{"every helper package is transparent", stack(
			mod+"units.DBm.Float@/src/internal/units/units.go",
			mod+"meas.Filter@/src/internal/meas/meas.go",
			mod+"rrc.MeasReport.RAT@/src/internal/rrc/messages.go",
			mod+"policy.(*Operator).A3@/src/internal/policy/policy.go",
			mod+"band.ARFCN@/src/internal/band/band.go",
			mod+"geo.Point.Dist@/src/internal/geo/geo.go",
			mod+"stats.Median[go.shape.float64]@/src/internal/stats/stats.go",
			mod+"device.(*Profile).Name@/src/internal/device/device.go",
			mod+"obs.(*Registry).Add@/src/internal/obs/obs.go",
			mod+"viz.Bars@/src/internal/viz/viz.go",
			mod+"experiments.Fig6@/src/internal/experiments/exp_causes.go"), "experiments"},
		{"runtime and stdlib charged to the layer above", stack(
			"runtime.mallocgc@/go/src/runtime/malloc.go",
			"strconv.ParseInt@/go/src/strconv/atoi.go",
			mod+"sig.(*parser).event@/src/internal/sig/parse.go"), "sig.parse"},
		{"GC assist stays with the allocating layer", stack(
			"runtime.gcAssistAlloc@/go/src/runtime/mgcmark.go",
			"runtime.mallocgc@/go/src/runtime/malloc.go",
			mod+"uesim.(*engine).step@/src/internal/uesim/nsa.go",
			"runtime.goexit@/go/src/runtime/asm_amd64.s"), "uesim"},
		{"sig shared vocabulary under the emitter", stack(
			mod+"sig.Timestamp@/src/internal/sig/sig.go",
			mod+"sig.(*Emitter).Emit@/src/internal/sig/emit.go"), "sig.emit"},
		{"sig shared vocabulary under the parser", stack(
			mod+"sig.parseTimestamp@/src/internal/sig/sig.go",
			mod+"sig.(*parser).header@/src/internal/sig/bscan.go"), "sig.parse"},
		{"core split by file: stream detector", stack(
			mod + "core.(*StreamDetector).Push@/src/internal/core/stream.go"), "core.detect"},
		{"core split by file: classifier", stack(
			mod+"core.Classify@/src/internal/core/classify.go",
			mod+"core.Analyze@/src/internal/core/classify.go"), "core.classify"},
		{"core split by file: predictor", stack(
			mod + "core.Predict@/src/internal/core/predict.go"), "core.predict"},
		{"inlined frames use their own file", stack(
			mod+"core.(*Loop).CycleKeys@/src/internal/core/detect.go",
			mod+"core.Classify@/src/internal/core/classify.go"), "core.detect"},
		{"closures belong to their package", stack(
			mod + "campaign.runOnce.func2@/src/internal/campaign/campaign.go"), "campaign"},
		{"faults", stack(
			mod + "faults.(*streamer).Read@/src/internal/faults/stream.go"), "faults"},
		{"GC mark worker", stack(
			"runtime.scanobject@/go/src/runtime/mgcmark.go",
			"runtime.gcDrain@/go/src/runtime/mgcmark.go",
			"runtime.gcBgMarkWorker.func2@/go/src/runtime/mgc.go",
			"runtime.systemstack@/go/src/runtime/asm_amd64.s",
			"runtime.gcBgMarkWorker@/go/src/runtime/mgc.go"), rowGC},
		{"background sweeper", stack(
			"runtime.sweepone@/go/src/runtime/mgcsweep.go",
			"runtime.bgsweep@/go/src/runtime/mgcsweep.go"), rowGC},
		{"collector without a Go stack", stack("runtime._GC@"), rowGC},
		{"no layer and no collector", stack(
			"runtime/pprof.profileWriter@/go/src/runtime/pprof/pprof.go"), rowUnattributed},
		{"benchmark frames alone", stack(
			"main.verdict@/src/loopbench/ingest.go", "main.main@/src/loopbench/main.go"), rowUnattributed},
		{"type arguments never name the package", stack(
			mod + "stats.Sort[" + mod + "deploy.Cluster]@/src/internal/stats/stats.go"), rowUnattributed},
		{"empty stack", nil, rowUnattributed},
	}
	for _, tc := range cases {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("%s: charged to %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRowsCoverTables(t *testing.T) {
	rows := map[string]bool{}
	for _, r := range layerRows {
		if rows[r] {
			t.Errorf("row %q listed twice", r)
		}
		rows[r] = true
	}
	for pkg, r := range layerPackages {
		if !rows[r] {
			t.Errorf("package %s maps to unlisted row %q", pkg, r)
		}
	}
	for file, r := range layerFiles {
		if !rows[r] {
			t.Errorf("file %s maps to unlisted row %q", file, r)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	samples := []stackSample{
		{Frames: stack(mod + "radio.f@radio.go"), Count: 3},
		{Frames: stack("runtime._GC@"), Count: 1},
		{Frames: stack("main.main@main.go"), Count: 1},
	}
	shares, total := layerShares(samples)
	if total != 5 || len(shares) != len(layerRows) {
		t.Fatalf("total %d over %d rows, want 5 over %d", total, len(shares), len(layerRows))
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got := shares["radio"]; got < 0.599999 || got > 0.600001 {
		t.Errorf("radio share %v, want 0.6", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestDecodeProfile decodes a real CPU profile of this process and
// finds the function that burned the CPU.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.Count
		for _, f := range s.Frames {
			if strings.HasSuffix(f.Func, ".spin") && strings.HasSuffix(f.File, "attribute_test.go") {
				inSpin += s.Count
				break
			}
		}
	}
	if total == 0 || inSpin == 0 {
		t.Fatalf("decoded %d samples, %d in spin; want both > 0", total, inSpin)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}
