// Command loopctl analyzes a signaling capture: it extracts the
// serving-cell-set timeline, detects 5G ON-OFF loops, classifies their
// causes and prints per-cycle impact metrics — the paper's full
// methodology over one log file.
//
// Usage:
//
//	loopctl analyze <logfile>    analyze an NSG-style signaling log
//	loopctl demo                 generate and analyze a sample loop run
//
// With "-" as the file name, analyze reads from standard input.
// -metrics prints an observability snapshot (parse counters, stage
// spans) to stderr after the command; -debug-addr serves pprof, expvar
// and the live snapshot while the command runs. Neither changes the
// analysis output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// app carries one invocation's flags and streams, so tests can drive
// the full CLI without touching the process state.
type app struct {
	jsonOut  bool
	lenient  bool
	metrics  bool
	followOn bool
	poll     time.Duration
	idleExit time.Duration
	horizon  int
	stdin    io.Reader
	stdout   io.Writer
	stderr   io.Writer
	reg      *obs.Registry
}

// collector adapts the optional registry to the observation interface.
// The untyped nil keeps `c != nil` guards false when metrics are off (a
// typed nil *Registry inside the interface would defeat them).
func (a *app) collector() obs.Collector {
	if a.reg == nil {
		return nil
	}
	return a.reg
}

// span opens a stage span when metrics are on; the returned func is
// always safe to call.
func (a *app) span(s obs.Stage) func() {
	if a.reg == nil {
		return func() {}
	}
	return a.reg.StartStage(s)
}

// run is main without the process exit: 0 ok, 1 failure, 2 usage.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	a := &app{stdin: stdin, stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("loopctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&a.jsonOut, "json", false, "emit machine-readable JSON instead of text")
	fs.BoolVar(&a.lenient, "lenient", false, "salvage a damaged capture: quarantine malformed records and report what was dropped")
	fs.BoolVar(&a.metrics, "metrics", false, "print an observability snapshot (stable JSON) to stderr after the command")
	fs.BoolVar(&a.followOn, "follow", false, "with analyze: tail the capture as it grows and emit a loop record per lifecycle event (always lenient)")
	fs.DurationVar(&a.poll, "poll", 200*time.Millisecond, "with -follow: how often to re-check the capture file for growth")
	fs.DurationVar(&a.idleExit, "idle-exit", 0, "with -follow: stop once the capture has not grown for this long (0 = follow until interrupted)")
	fs.IntVar(&a.horizon, "horizon", 0, "with -follow: bound detection to cycles of at most this many steps, capping memory (0 = unbounded)")
	debug := fs.String("debug-addr", "", "serve pprof/expvar/metrics on this address while the command runs")
	fs.Usage = func() { a.usage() }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		a.usage()
		return 2
	}
	if a.metrics || *debug != "" {
		a.reg = obs.NewRegistry()
	}
	if *debug != "" {
		bound, stop, err := obs.StartDebugServer(*debug, a.reg)
		if err != nil {
			fmt.Fprintln(stderr, "loopctl:", err)
			return 1
		}
		defer func() {
			// stop drains in-flight scrapes for obs.DefaultDrainTimeout,
			// then cuts stragglers loose and reports the overrun.
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "loopctl: debug server:", err)
			}
		}()
		fmt.Fprintln(stderr, "loopctl: debug server on http://"+bound)
	}
	var err error
	switch rest[0] {
	case "analyze":
		if len(rest) != 2 {
			a.usage()
			return 2
		}
		err = a.analyze(rest[1])
	case "demo":
		err = a.demo()
	case "export":
		if len(rest) != 2 {
			a.usage()
			return 2
		}
		err = a.export(rest[1])
	default:
		a.usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "loopctl:", err)
		return 1
	}
	if a.metrics {
		if werr := a.reg.WriteJSON(stderr); werr != nil {
			fmt.Fprintln(stderr, "loopctl:", werr)
			return 1
		}
	}
	return 0
}

func (a *app) usage() {
	fmt.Fprintf(a.stderr, `loopctl — 5G ON-OFF loop analyzer

usage (add -json before the subcommand for machine-readable output;
add -lenient to salvage corrupted captures instead of aborting;
add -follow to tail a growing capture and emit loops as they complete
their second repetition (-poll, -idle-exit, -horizon tune it);
add -metrics to print an observability snapshot to stderr;
add -debug-addr host:port to serve pprof/expvar while running):
  loopctl analyze <logfile|->   analyze an NSG-style signaling log
  loopctl demo                  generate and analyze a sample loop run
  loopctl export <file>         write a simulated loop capture to a file
`)
}

// bestLoopSite returns the deployment's most loop-prone S1E3 cluster
// (smallest co-channel gap).
func bestLoopSite(dep *loopscope.Deployment) *loopscope.Cluster {
	best := dep.Clusters[0]
	bestGap := 1e9
	for _, cl := range dep.Clusters {
		if cl.Arch.String() != "s1e3" {
			continue
		}
		pair := cl.CellsOnChannel(387410)
		if len(pair) < 2 {
			continue
		}
		gap := dep.Field.Median(pair[0], cl.Loc).RSRPDBm.Sub(dep.Field.Median(pair[1], cl.Loc).RSRPDBm).Float()
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			bestGap, best = gap, cl
		}
	}
	return best
}

// export writes a simulated looping capture to a file, giving users a
// realistic input for `loopctl analyze` and for testing their own
// tooling against the log format.
func (a *app) export(path string) error {
	op := loopscope.OperatorByName("OPT")
	dep := loopscope.BuildDeployment(op, loopscope.Areas()[0], 43)
	cl := bestLoopSite(dep)
	endSim := a.span(obs.StageSimulate)
	res := loopscope.SimulateRun(loopscope.RunConfig{
		Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7,
		Metrics: a.collector(),
	})
	endSim()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := res.Log.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "wrote %s (%d events over %s)\n", path, res.Log.Len(),
		res.Log.Duration().Round(time.Second))
	return nil
}

// analyze parses and reports one log file. With -lenient the capture is
// salvaged: malformed records are quarantined and summarized instead of
// aborting the analysis. With -follow the capture is tailed as it grows
// and loops are reported live as they are decided (see follow.go).
func (a *app) analyze(path string) error {
	if a.followOn {
		return a.follow(path)
	}
	r := a.stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	log := &loopscope.Log{}
	endParse := a.span(obs.StageParse)
	sal, err := loopscope.ParseLogTo(r, log, loopscope.ParseOptions{Lenient: a.lenient, Metrics: a.collector()})
	endParse()
	if err != nil {
		return err
	}
	if a.lenient {
		a.reportWithSalvage(log, sal)
	} else {
		a.report(log)
	}
	return nil
}

// demo simulates one looping run (an S1E3 site on the SA operator) and
// analyzes it, so the tool is demonstrable without a capture in hand.
func (a *app) demo() error {
	op := loopscope.OperatorByName("OPT")
	area := loopscope.Areas()[0]
	dep := loopscope.BuildDeployment(op, area, 43)
	// Pick the location whose archetype loops most reliably.
	cl := bestLoopSite(dep)
	endSim := a.span(obs.StageSimulate)
	res := loopscope.SimulateRun(loopscope.RunConfig{
		Op: op, Field: dep.Field, Cluster: cl,
		Duration: 3 * time.Minute, Seed: 7,
		Metrics: a.collector(),
	})
	endSim()
	fmt.Fprintf(a.stdout, "simulated 3-minute run at %v (%s, %s)\n\n", cl.Loc, op.Name, op.Mode)
	a.report(res.Log)
	return nil
}

// jsonReport is the machine-readable analysis document.
type jsonReport struct {
	Events    int           `json:"events"`
	DurationS float64       `json:"duration_s"`
	Salvage   *jsonSalvage  `json:"salvage,omitempty"`
	Occupancy jsonOccupancy `json:"occupancy"`
	Steps     []jsonStep    `json:"steps"`
	Loops     []jsonLoop    `json:"loops"`
}

// jsonSalvage mirrors the lenient-parse report.
type jsonSalvage struct {
	EventsKept     int      `json:"events_kept"`
	RecordsDropped int      `json:"records_dropped"`
	LinesSkipped   int      `json:"lines_skipped"`
	KeptRatio      float64  `json:"kept_ratio"`
	Errors         []string `json:"errors,omitempty"`
}

type jsonOccupancy struct {
	IdleS  float64 `json:"idle_s"`
	SAS    float64 `json:"sa_s"`
	NSAS   float64 `json:"nsa_s"`
	LTES   float64 `json:"lte_only_s"`
	Swings int     `json:"on_off_swings"`
}

type jsonStep struct {
	AtS   float64 `json:"at_s"`
	State string  `json:"state"`
	Set   string  `json:"set"`
	Cause string  `json:"cause,omitempty"`
	// WorstSCellRSRPDBm is only present when the step's release evidence
	// carries an SCell measurement report (Evidence.HasSCellReport); the
	// +Inf "no report" sentinel is never serialized.
	WorstSCellRSRPDBm *float64 `json:"worst_scell_rsrp_dbm,omitempty"`
}

type jsonLoop struct {
	Subtype     string   `json:"subtype"`
	Type        string   `json:"type"`
	Form        string   `json:"form"`
	Fingerprint string   `json:"fingerprint"`
	CycleLen    int      `json:"cycle_len"`
	Reps        int      `json:"reps"`
	CycleKeys   []string `json:"cycle_keys"`
	AvgOnS      float64  `json:"avg_on_s"`
	AvgOffS     float64  `json:"avg_off_s"`
}

// reportJSON writes the analysis as JSON.
func (a *app) reportJSON(log *loopscope.Log, sal *loopscope.Salvage) {
	endExtract := a.span(obs.StageExtract)
	tl := loopscope.ExtractTimeline(log)
	endExtract()
	endDetect := a.span(obs.StageDetect)
	an := loopscope.Analyze(tl)
	endDetect()
	occ := tl.Occupy()
	doc := jsonReport{
		Events:    log.Len(),
		DurationS: log.Duration().Seconds(),
		Occupancy: jsonOccupancy{
			IdleS: occ.Idle.Seconds(), SAS: occ.SA.Seconds(),
			NSAS: occ.NSA.Seconds(), LTES: occ.LTE.Seconds(),
			Swings: occ.Swings,
		},
	}
	if sal != nil {
		js := &jsonSalvage{
			EventsKept:     sal.EventsKept,
			RecordsDropped: sal.RecordsDropped,
			LinesSkipped:   sal.LinesSkipped,
			KeptRatio:      sal.KeptRatio(),
		}
		for _, pe := range sal.Errors {
			js.Errors = append(js.Errors, pe.Error())
		}
		doc.Salvage = js
	}
	for _, s := range tl.Steps {
		js := jsonStep{AtS: s.At.Seconds(), State: s.Set.State().String(), Set: s.Set.String()}
		if s.Evidence.Kind.String() != "none" {
			js.Cause = s.Evidence.Kind.String()
		}
		if s.Evidence.HasSCellReport() {
			rsrp := s.Evidence.WorstSCellRSRP.Float()
			js.WorstSCellRSRPDBm = &rsrp
		}
		doc.Steps = append(doc.Steps, js)
	}
	for i, l := range an.Loops {
		var on, off time.Duration
		cycles := l.Cycles()
		for _, c := range cycles {
			on += c.On
			off += c.Off
		}
		n := time.Duration(len(cycles))
		sub := an.Subtypes[i]
		doc.Loops = append(doc.Loops, jsonLoop{
			Subtype: sub.String(), Type: sub.Type().String(), Form: l.Form.String(),
			Fingerprint: l.Fingerprint(), CycleLen: l.CycleLen, Reps: l.Reps,
			CycleKeys: l.CycleKeys(),
			AvgOnS:    (on / n).Seconds(), AvgOffS: (off / n).Seconds(),
		})
	}
	enc := json.NewEncoder(a.stdout)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// report prints the analysis of a parsed log.
func (a *app) report(log *loopscope.Log) { a.reportWithSalvage(log, nil) }

// reportWithSalvage prints the analysis, prefixed by the salvage
// summary when the capture went through lenient parsing.
func (a *app) reportWithSalvage(log *loopscope.Log, sal *loopscope.Salvage) {
	if a.jsonOut {
		a.reportJSON(log, sal)
		return
	}
	if sal != nil {
		fmt.Fprintln(a.stdout, sal.Summary())
		const maxShown = 5
		for i, pe := range sal.Errors {
			if i == maxShown {
				fmt.Fprintf(a.stdout, "  ... (%d more quarantined records)\n", len(sal.Errors)-maxShown)
				break
			}
			fmt.Fprintf(a.stdout, "  quarantined %v\n", pe)
		}
		fmt.Fprintln(a.stdout)
	}
	endExtract := a.span(obs.StageExtract)
	tl := loopscope.ExtractTimeline(log)
	endExtract()
	occ := tl.Occupy()
	fmt.Fprintf(a.stdout, "events: %d, duration: %s, cell-set changes: %d\n",
		log.Len(), log.Duration().Round(time.Millisecond), len(tl.Steps))
	fmt.Fprintf(a.stdout, "occupancy: 5G SA %s, 5G NSA %s, 4G-only %s, IDLE %s (5G OFF %.0f%%, %d ON→OFF swings)\n",
		occ.SA.Round(time.Second), occ.NSA.Round(time.Second),
		occ.LTE.Round(time.Second), occ.Idle.Round(time.Second),
		100*occ.OffRatio(), occ.Swings)
	fmt.Fprintln(a.stdout, "\nserving cell set timeline:")
	for i, s := range tl.Steps {
		cause := ""
		if s.Evidence.Kind.String() != "none" {
			cause = "  ← " + s.Evidence.Kind.String()
			if s.Evidence.PendingMod != nil {
				cause += fmt.Sprintf(" (SCell mod %s → %s)",
					s.Evidence.PendingMod.Released, s.Evidence.PendingMod.Added)
			}
		}
		fmt.Fprintf(a.stdout, "  %3d  t=%-10s %s%s\n", i, s.At.Round(time.Millisecond), s.Set, cause)
		if i == 30 && len(tl.Steps) > 34 {
			fmt.Fprintf(a.stdout, "  ... (%d more)\n", len(tl.Steps)-31)
			break
		}
	}

	endDetect := a.span(obs.StageDetect)
	an := loopscope.Analyze(tl)
	endDetect()
	if !an.HasLoop() {
		fmt.Fprintln(a.stdout, "\nno 5G ON-OFF loop detected (form I)")
		return
	}
	fmt.Fprintf(a.stdout, "\ndetected %d loop(s):\n", len(an.Loops))
	for i, l := range an.Loops {
		sub := an.Subtypes[i]
		cycles := l.Cycles()
		var on, off time.Duration
		for _, c := range cycles {
			on += c.On
			off += c.Off
		}
		n := time.Duration(len(cycles))
		fmt.Fprintf(a.stdout, "  loop %d: %v (%s) — cycle of %d sets × %d reps; avg ON %s, OFF %s\n",
			i+1, sub, l.Form, l.CycleLen, l.Reps,
			(on / n).Round(100*time.Millisecond), (off / n).Round(100*time.Millisecond))
		for _, k := range l.CycleKeys() {
			fmt.Fprintf(a.stdout, "         %s\n", k)
		}
	}
}
