package app

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyBenchArgs runs every section at a few hundred requests, each row once.
var tinyBenchArgs = []string{
	"-benchtime", "1ms",
	"-offline-requests", "400", "-weighted-requests", "400",
	"-incremental-requests", "400", "-serve-requests", "400", "-model-requests", "400",
}

// readBenchFile decodes a bench file strictly: a field the schema does not
// know fails.
func readBenchFile(t *testing.T, raw []byte) benchFile {
	t.Helper()
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("parse bench file: %v", err)
	}
	return f
}

func sectionByName(f benchFile, name string) *benchSection {
	for _, sec := range f.Sections {
		if sec.Name == name {
			return sec
		}
	}
	return nil
}

// runTinyBench runs BenchMain at tiny sizes and returns its JSON output.
func runTinyBench(t *testing.T) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := BenchMain(tinyBenchArgs, &stdout, &stderr); code != 0 {
		t.Fatalf("BenchMain exited %d: %s", code, stderr.String())
	}
	return stdout.Bytes()
}

// TestBenchTinyRun pins the schema end to end: a tiny run writes every
// section, the output parses back, and every row's checked value agrees with
// its section. Rows of the solver sections compute one optimum and must all
// equal it; the engine section's workload is fixed, so its fulfilled counts
// must equal the checked-in baseline's.
func TestBenchTinyRun(t *testing.T) {
	f := readBenchFile(t, runTinyBench(t))
	var names []string
	for _, sec := range f.Sections {
		names = append(names, sec.Name)
		if len(sec.Rows) == 0 || sec.GOMAXPROCS < 1 {
			t.Fatalf("section %s: %d rows, gomaxprocs %d", sec.Name, len(sec.Rows), sec.GOMAXPROCS)
		}
		for _, row := range sec.Rows {
			if row.NsPerOp <= 0 || row.Value <= 0 {
				t.Fatalf("%s.%s: ns/op %v value %d", sec.Name, row.Key, row.NsPerOp, row.Value)
			}
			counts := sec.Name != "max_profit" && sec.Name != "min_latency" // profit and latency are sums, not request counts
			if counts && sec.Workload.Requests > 0 && row.Value > sec.Workload.Requests {
				t.Fatalf("%s.%s: value %d above %d requests", sec.Name, row.Key, row.Value, sec.Workload.Requests)
			}
		}
	}
	if got, want := strings.Join(names, ","), "engine,offline,max_profit,min_latency,incremental_opt,serve_ingest,model_hold"; got != want {
		t.Fatalf("sections %s, want %s", got, want)
	}
	for _, name := range []string{"offline", "max_profit", "min_latency", "incremental_opt"} {
		sec := sectionByName(f, name)
		for _, row := range sec.Rows {
			if row.Value != sec.Rows[0].Value {
				t.Fatalf("%s.%s = %d, %s.%s = %d", name, row.Key, row.Value, name, sec.Rows[0].Key, sec.Rows[0].Value)
			}
		}
	}
	raw, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	base := sectionByName(readBenchFile(t, raw), "engine")
	engine := sectionByName(f, "engine")
	if base == nil || len(base.Rows) != len(engine.Rows) {
		t.Fatalf("checked-in engine section %+v, tiny run has %d rows", base, len(engine.Rows))
	}
	for i, row := range engine.Rows {
		if b := base.Rows[i]; row.Key != b.Key || row.Value != b.Value {
			t.Fatalf("engine row %d: %s fulfilled %d, baseline %s fulfilled %d", i, row.Key, row.Value, b.Key, b.Value)
		}
	}
}

// TestBenchCheckRegress reruns the gated sections of a tiny run against
// itself: with a huge tolerance the gate passes and prints one line per
// gated row; a gated baseline row the rerun does not produce fails it.
func TestBenchCheckRegress(t *testing.T) {
	raw := runTinyBench(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f := readBenchFile(t, raw)
	var gatedRows []string
	for _, spec := range benchSpecs {
		if sec := sectionByName(f, spec.name); spec.gated && sec != nil {
			for _, row := range sec.Rows {
				gatedRows = append(gatedRows, spec.name+"."+row.Key)
			}
		}
	}
	if len(gatedRows) != 7 {
		t.Fatalf("gated rows %v, want the 2 incremental_opt, 1 serve_ingest and 4 model_hold rows", gatedRows)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-benchtime", "1ms", "-check-regress", path, "-regress-tolerance", "1e6"}
	if code := BenchMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("check-regress exited %d: %s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(gatedRows) {
		t.Fatalf("%d lines for %d gated rows:\n%s", len(lines), len(gatedRows), stdout.String())
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, gatedRows[i]+" ") || !strings.HasSuffix(line, " ok") {
			t.Fatalf("line %d %q, want %s ... ok", i, line, gatedRows[i])
		}
	}

	t.Run("missing row fails", func(t *testing.T) {
		sec := sectionByName(f, "model_hold")
		sec.Rows = append(sec.Rows, benchRow{Key: "hold=16,cap=4", NsPerOp: 1, Value: 1})
		out, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "missing.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		stderr.Reset()
		args := []string{"-benchtime", "1ms", "-check-regress", path, "-regress-tolerance", "1e6"}
		if code := BenchMain(args, &stdout, &stderr); code != 1 {
			t.Fatalf("check-regress exited %d with a missing row, want 1:\n%s", code, stdout.String())
		}
		if !strings.Contains(stdout.String(), "model_hold.hold=16,cap=4") || !strings.Contains(stdout.String(), "MISSING") {
			t.Fatalf("output does not name the missing row:\n%s", stdout.String())
		}
	})
}

// TestBenchBaselineFile pins the checked-in baseline: it parses under the
// schema and holds every gated section with its rerun size and rows.
func TestBenchBaselineFile(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	f := readBenchFile(t, raw)
	var gated []string
	for _, spec := range benchSpecs {
		if !spec.gated {
			continue
		}
		gated = append(gated, spec.name)
		sec := sectionByName(f, spec.name)
		if sec == nil {
			t.Fatalf("BENCH_engine.json has no %s section", spec.name)
		}
		if sec.Workload.TargetRequests <= 0 || len(sec.Rows) == 0 {
			t.Fatalf("%s: target_requests %d, %d rows", spec.name, sec.Workload.TargetRequests, len(sec.Rows))
		}
	}
	if got := strings.Join(gated, ","); got != "incremental_opt,serve_ingest,model_hold" {
		t.Fatalf("gated sections %s, want incremental_opt,serve_ingest,model_hold", got)
	}
}
