// Command campaign runs the measurement study and regenerates the
// paper's tables and figures.
//
// Usage:
//
//	campaign [-exp id|all] [-seed N] [-scale F] [-duration D] [-list]
//	         [-export dir] [-report out.md]
//	         [-checkpoint journal] [-resume] [-sink out.jsonl] [-workers N]
//	         [-metrics out.json] [-debug-addr host:port]
//
// With -exp all (the default) every experiment runs in the paper's
// presentation order, sharing one study dataset. The study is built
// once and rendered to every requested artifact: -export writes it as
// CSV tables (runs, loops, locations), -report writes the -exp
// selection as a markdown report, and without either the selection is
// printed to stdout. Both compose with every flag below.
//
// -checkpoint journals every completed run into a durable file; after a crash or a SIGTERM
// (exit code 3) the same invocation plus -resume replays the journal
// and continues, producing output byte-identical to an uninterrupted
// run (see docs/RESILIENCE.md). -sink streams each run record as JSON
// lines while the study executes. -metrics writes an observability
// snapshot (stage spans, run/retry/salvage counters) as stable JSON
// after the run; -debug-addr serves pprof, expvar and the live
// snapshot while the study executes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/report"
)

// exitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM;
// with -checkpoint the journal permits continuation via -resume.
const exitInterrupted = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment ID (fig6, table5, ...) or 'all'")
		seed     = fs.Int64("seed", 42, "master seed of the study")
		scale    = fs.Float64("scale", 1.0, "run-count scale factor")
		duration = fs.Duration("duration", 5*time.Minute, "stationary run duration")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		export   = fs.String("export", "", "directory to export the dataset as CSV (runs/loops/locations)")
		reportTo = fs.String("report", "", "write a full markdown report to this file")
		ckpt     = fs.String("checkpoint", "", "journal every completed run into this file (crash-recoverable; see -resume)")
		resume   = fs.Bool("resume", false, "replay the -checkpoint journal, skipping runs it already holds")
		sink     = fs.String("sink", "", "stream every run record to this file as JSON lines while the study executes")
		workers  = fs.Int("workers", 0, "worker pool size for the study, the dense grids and the generator sweeps (0 = one per CPU; output is identical at any count)")
		metrics  = fs.String("metrics", "", "write a metrics snapshot (stable JSON) to this file after the run")
		debug    = fs.String("debug-addr", "", "serve pprof/expvar/metrics on this address while the study runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := loopscope.ExperimentIDs()
	if *list {
		keys := make([]string, 0, len(ids))
		for id := range ids {
			keys = append(keys, id)
		}
		sort.Strings(keys)
		for _, id := range keys {
			fmt.Fprintf(stdout, "%-8s %s\n", id, ids[id])
		}
		return 0
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(stderr, "campaign: -resume requires -checkpoint (the journal to replay)")
		return 2
	}

	opts := loopscope.StudyOptions{Seed: *seed, RunScale: *scale, Duration: *duration,
		Workers: *workers, Checkpoint: *ckpt}
	var reg *obs.Registry
	if *metrics != "" || *debug != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	if *debug != "" {
		bound, stop, err := obs.StartDebugServer(*debug, reg)
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		defer func() {
			// stop drains in-flight scrapes for obs.DefaultDrainTimeout,
			// then cuts stragglers loose and reports the overrun.
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "campaign: debug server:", err)
			}
		}()
		fmt.Fprintln(stderr, "campaign: debug server on http://"+bound)
	}

	if *exp != "all" {
		if _, ok := ids[*exp]; !ok {
			fmt.Fprintf(stderr, "campaign: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
	}

	// SIGINT/SIGTERM cancel the study context: dispatch stops, in-flight
	// runs abort between events, and completed work stays journaled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	st, code := buildStudy(ctx, stderr, opts, *sink, *resume)
	if code != 0 {
		return code
	}
	code = render(stdout, stderr, st, *exp, *export, *reportTo)
	if code == 0 && *metrics != "" {
		if err := writeFile(*metrics, reg.WriteJSON); err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		fmt.Fprintln(stderr, "campaign: wrote metrics snapshot to", *metrics)
	}
	return code
}

// buildStudy executes the study under ctx, or with resume continues
// the journal at opts.Checkpoint, wiring the optional JSONL record
// sink, and maps engine errors to exit codes.
func buildStudy(ctx context.Context, stderr io.Writer, opts loopscope.StudyOptions,
	sinkPath string, resume bool) (*loopscope.Study, int) {

	closeSink := func() error { return nil }
	if sinkPath != "" {
		f, err := os.Create(sinkPath)
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return nil, 1
		}
		opts.Sink = loopscope.NewJSONLStudySink(f)
		closeSink = f.Close
	}
	var st *loopscope.Study
	var err error
	if resume {
		var sal *loopscope.CheckpointSalvage
		st, sal, err = loopscope.ResumeStudy(ctx, opts, opts.Checkpoint)
		if sal != nil && !sal.Clean() {
			fmt.Fprintln(stderr, "campaign: checkpoint journal salvaged:", sal.Summary())
		}
	} else {
		st, err = loopscope.RunStudyContext(ctx, opts)
	}
	if cerr := closeSink(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(stderr, "campaign: interrupted:", err)
			if opts.Checkpoint != "" {
				fmt.Fprintln(stderr, "campaign: completed runs are journaled in", opts.Checkpoint,
					"— re-run with -resume to continue")
			}
			return nil, exitInterrupted
		}
		fmt.Fprintln(stderr, "campaign:", err)
		return nil, 1
	}
	return st, 0
}

// render writes every requested artifact from the one study: the CSV
// export and the markdown report when asked for, the selected
// experiments on stdout otherwise.
func render(stdout, stderr io.Writer, st *loopscope.Study, exp, export, reportTo string) int {
	var sel []string
	if exp != "all" {
		sel = []string{exp}
	}
	if export == "" && reportTo == "" {
		for _, res := range loopscope.ExperimentsWithStudy(sel, st) {
			printExperiment(stdout, res.ID, res.Title, res.Lines)
		}
		return 0
	}
	if export != "" {
		if err := exportDataset(stdout, export, st); err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
	}
	if reportTo != "" {
		err := writeFile(reportTo, func(w io.Writer) error { return report.Write(w, st, sel) })
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", reportTo)
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printExperiment renders one experiment's banner and result lines.
func printExperiment(w io.Writer, id, title string, lines []string) {
	fmt.Fprintf(w, "==================== %s — %s\n", id, title)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
}

// exportDataset writes the study's CSV tables.
func exportDataset(stdout io.Writer, dir string, st *loopscope.Study) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"runs.csv", func(w io.Writer) error { return loopscope.ExportStudyCSV(st, w, nil, nil) }},
		{"loops.csv", func(w io.Writer) error { return loopscope.ExportStudyCSV(st, nil, w, nil) }},
		{"locations.csv", func(w io.Writer) error { return loopscope.ExportStudyCSV(st, nil, nil, w) }},
	} {
		path := filepath.Join(dir, f.name)
		if err := writeFile(path, f.write); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	return nil
}
