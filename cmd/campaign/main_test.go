package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the experiment-output goldens with:
//
//	go test ./cmd/campaign -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// goldenArgs pins the reduced-scale study every golden is captured at.
// Experiment output is deterministic in (seed, scale, duration), so any
// drift in these bytes is an intentional analysis change or a bug.
var goldenArgs = []string{"-seed", "42", "-scale", "0.05", "-duration", "40s"}

// TestExperimentGoldens locks the CLI output of representative
// experiments end-to-end: study execution, aggregation and rendering.
func TestExperimentGoldens(t *testing.T) {
	for _, exp := range []string{"table3", "fig6"} {
		t.Run(exp, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(append([]string{}, goldenArgs...), "-exp", exp)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", exp+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, stdout.String(), want)
			}
		})
	}
}

// TestReportGolden locks the -report markdown file end-to-end at the
// golden study: summary header, experiment blocks and key metrics.
func TestReportGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-exp", "table3", "-report", path)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_table3.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// reportArgs returns the golden study flags for the table3 report at
// path, plus extras.
func reportArgs(path string, extra ...string) []string {
	return append(append(append([]string{}, goldenArgs...), "-exp", "table3", "-report", path), extra...)
}

// readReport loads a written report and checks it against the golden.
func readReport(t *testing.T, path string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_table3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the report golden", path)
	}
}

// TestReportWritesMetrics: -report composes with -metrics; the
// snapshot is written and the report bytes do not move.
func TestReportWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "r.md"), filepath.Join(dir, "m.json")
	var stdout, stderr bytes.Buffer
	if code := run(reportArgs(path, "-metrics", snap), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	readReport(t, path)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if !bytes.Contains(data, []byte(`"campaign.runs"`)) {
		t.Errorf("snapshot lacks campaign.runs:\n%s", data)
	}
}

// TestReportUnknownExperiment: -report validates -exp before running
// the study, like stdout rendering, and leaves no file behind.
func TestReportUnknownExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.md")
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-exp", "nope", "-report", path)
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("report file created for an unknown experiment (stat err %v)", err)
	}
}

// TestReportCheckpointResume: -report composes with -checkpoint, and
// rendering the resumed study gives the same report bytes.
func TestReportCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "study.ckpt")
	first, resumed := filepath.Join(dir, "first.md"), filepath.Join(dir, "resumed.md")
	var stdout, stderr bytes.Buffer
	if code := run(reportArgs(first, "-checkpoint", ckpt), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if code := run(reportArgs(resumed, "-checkpoint", ckpt, "-resume", "-workers", "4"), &stdout, &stderr); code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, stderr.String())
	}
	readReport(t, first)
	readReport(t, resumed)
}

// TestReportWithExport: -report and -export both render the one study.
func TestReportWithExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.md")
	var stdout, stderr bytes.Buffer
	if code := run(reportArgs(path, "-export", filepath.Join(dir, "csv")), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	readReport(t, path)
	for _, name := range []string{"runs.csv", "loops.csv", "locations.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, "csv", name)); err != nil || fi.Size() == 0 {
			t.Errorf("export %s not written: %v", name, err)
		}
	}
}

func TestListExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"table3", "fig6", "table5"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, stdout.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(append(append([]string{}, goldenArgs...), "-exp", "nope"), &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestMetricsSnapshotParity: -metrics writes a snapshot file and the
// experiment output on stdout stays byte-identical to an unobserved
// run — the CLI-level form of the observation-only guarantee.
func TestMetricsSnapshotParity(t *testing.T) {
	var plainOut, plainErr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-exp", "fig6")
	if code := run(args, &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, plainErr.String())
	}

	snap := filepath.Join(t.TempDir(), "metrics.json")
	var obsOut, obsErr bytes.Buffer
	args = append(append([]string{}, goldenArgs...), "-exp", "fig6", "-metrics", snap)
	if code := run(args, &obsOut, &obsErr); code != 0 {
		t.Fatalf("-metrics exit %d, stderr: %s", code, obsErr.String())
	}
	if !bytes.Equal(plainOut.Bytes(), obsOut.Bytes()) {
		t.Error("stdout changed when -metrics was attached")
	}

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name    string `json:"name"`
			Samples int64  `json:"samples"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, data)
	}
	counters := map[string]int64{}
	for _, c := range doc.Counters {
		counters[c.Name] = c.Value
	}
	if counters["campaign.runs"] == 0 {
		t.Errorf("campaign.runs missing from snapshot: %v", counters)
	}
	if counters["uesim.runs"] != counters["campaign.runs"] {
		t.Errorf("uesim.runs = %d, campaign.runs = %d; retry-free study should match",
			counters["uesim.runs"], counters["campaign.runs"])
	}
	spans := false
	for _, h := range doc.Histograms {
		if strings.HasPrefix(h.Name, "stage.") && h.Samples > 0 {
			spans = true
		}
	}
	if !spans {
		t.Error("snapshot has no stage span histograms")
	}
}

// TestMetricsWriteError: an unwritable -metrics path fails the run
// after the study completes.
func TestMetricsWriteError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-exp", "fig6",
		"-metrics", filepath.Join(t.TempDir(), "no-such-dir", "m.json"))
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1 on an unwritable metrics path", code)
	}
}

// TestExportDataset drives the CSV export path through a temp dir.
func TestExportDataset(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-export", dir)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"runs.csv", "loops.csv", "locations.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing export: %v", err)
		}
		if len(bytes.Split(data, []byte("\n"))) < 2 {
			t.Errorf("%s: no data rows", name)
		}
	}
}
