// Command loopbench is loopscope's end-to-end benchmark. One run
// executes one workload in its own process:
//
//	go run ./loopbench --workload paper --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	paper          every experiments.All() generator, as `campaign -exp all` runs them
//	study-faulted  campaign.RunContext at run scale 0.25 under faults.Profile(0.05)
//	ingest         the `loopctl analyze` path over a seeded corpus of clean captures
//
// With --trace 0 the run reports end-to-end metrics from untraced
// iterations, scaled to reference speed (see speed.go). With --trace 1
// it reports per-layer metrics: untraced iterations, the baseline,
// alternate with traced ones that run under the CPU profiler with an
// obs.Registry attached and benchmark-side spans.
// Output checks run outside the timed regions; any failure makes the
// result incorrect and the exit code 1. The last line of standard
// output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// heldOutSeed is the seed kept back for confirming a performance claim
// on inputs the change was not tuned on.
const heldOutSeed = 7919

// maxWorkers caps the study worker pool so results stay comparable
// across machines with more cores.
const maxWorkers = 2

// setupRuns is how often a run repeats its set-up; setup_s is the
// median.
const setupRuns = 5

// minIterations is the fewest untraced iterations a run measures, so
// each median has at least three samples.
const minIterations = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	seed    int64
	budget  time.Duration // measured time of the run
	traced  bool
	workers int
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	// notes are report lines printed before the result: figures that
	// apply to this workload only, and comparisons for the reader.
	notes []string
	// problems are failed output checks.
	problems []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"paper":         runPaper,
	"study-faulted": runStudyFaulted,
	"ingest":        runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, study-faulted or ingest")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "seconds measured per run")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "loopbench: need --workload paper|study-faulted|ingest, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		workers: min(maxWorkers, runtime.NumCPU()),
	}
	for _, line := range envHeader(cfg) {
		fmt.Fprintln(stdout, "#", line)
	}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "loopbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if rss, err := peakRSSMB(); err != nil {
		fmt.Fprintf(stderr, "loopbench: %v\n", err)
		return 1
	} else if !cfg.traced {
		res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MiB"}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, line := range out.notes {
		fmt.Fprintln(stdout, line)
	}
	if res.Attempted > 0 {
		fmt.Fprintf(stdout, "%-28s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "loopbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "loopbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
