package grid

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reqsched/internal/ratio"
	"reqsched/internal/trace"
)

func sampleRecord(id string, opt, alg int) Record {
	r := Record{ID: id, M: MeasOf(ratio.Measurement{
		Strategy: "A_fix", Input: "fix/d=4", N: 5, D: 4,
		OPT: opt, ALG: alg, Expired: opt - alg, Bound: 1.75,
	})}
	r.Seal()
	return r
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, done, scan, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || scan.Lines != 0 {
		t.Fatalf("fresh journal not empty: done=%d scan=%+v", len(done), scan)
	}
	recs := []Record{sampleRecord("aaaa", 8, 5), sampleRecord("bbbb", 12, 12)}
	for _, r := range recs {
		if err := j.Append(Record{ID: r.ID, M: r.M}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, done, scan, err = OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TornOffset >= 0 || scan.Skipped != 0 || len(done) != 2 {
		t.Fatalf("reload: done=%d scan=%+v", len(done), scan)
	}
	for _, r := range recs {
		got, ok := done[r.ID]
		if !ok {
			t.Fatalf("record %s lost", r.ID)
		}
		if got.M != r.M || got.Digest != r.Digest {
			t.Fatalf("record %s mutated: %+v vs %+v", r.ID, got, r)
		}
		if got.M.ToMeasurement() != r.M.ToMeasurement() {
			t.Fatalf("measurement round-trip differs for %s", r.ID)
		}
	}
}

func TestOpenJournalRefusesNonEmptyWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "x", M: sampleRecord("x", 3, 3).M}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, _, err := OpenJournal(path, false); err == nil {
		t.Fatal("OpenJournal overwrote a non-empty journal without -resume")
	}
}

func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{ID: "x", M: sampleRecord("x", 3, 3).M}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := int64(len(b))
	// Simulate a crash mid-append: half a second record, no newline.
	if err := os.WriteFile(path, append(b, b[:len(b)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, done, scan, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TornOffset != intact || len(done) != 1 {
		t.Fatalf("torn resume: done=%d scan=%+v want offset %d", len(done), scan, intact)
	}
	// The torn bytes must be gone so the next append starts a clean line.
	if err := j.Append(Record{ID: "y", M: sampleRecord("y", 7, 6).M}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, done, scan, err = OpenJournal(path, true)
	if err != nil || scan.TornOffset >= 0 || scan.Skipped != 0 || len(done) != 2 {
		t.Fatalf("after truncate+append: done=%d scan=%+v err=%v", len(done), scan, err)
	}
}

func TestReadJournalSkipsCorruptTerminatedLines(t *testing.T) {
	good := sampleRecord("good", 9, 8)
	tampered := sampleRecord("bad", 9, 8)
	tampered.M.ALG = 1 // digest now stale
	var sb strings.Builder
	writeRec := func(r Record) {
		b, _ := json.Marshal(r)
		sb.Write(b)
		sb.WriteByte('\n')
	}
	writeRec(good)
	writeRec(tampered)
	sb.WriteString("not json at all\n")
	writeRec(Record{ID: "neg", M: Meas{N: 2, D: 1, OPT: 3, ALG: 5}}) // ALG > OPT, unsealed
	recs, scan, err := ReadJournal(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "good" {
		t.Fatalf("recs = %+v", recs)
	}
	if scan.Skipped != 3 || scan.TornOffset >= 0 {
		t.Fatalf("scan = %+v, want 3 skipped and no torn tail", scan)
	}
}

// TestReadJournalSkipsOverlongLines: a line past trace.MaxLineBytes is
// corruption like any other — skipped and counted, with the records around
// it intact.
func TestReadJournalSkipsOverlongLines(t *testing.T) {
	b, _ := json.Marshal(sampleRecord("after", 9, 8))
	in := strings.Repeat("x", trace.MaxLineBytes+1) + "\n" + string(b) + "\n"
	recs, scan, err := ReadJournal(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "after" || scan.Lines != 2 || scan.Skipped != 1 {
		t.Fatalf("recs = %+v, scan = %+v; want the record after one skipped line", recs, scan)
	}
}

// TestWorkerMainRejectsOverlongLine: the worker fails with the scanner's
// *trace.LineTooLong instead of buffering an unbounded stdin line.
func TestWorkerMainRejectsOverlongLine(t *testing.T) {
	in := strings.Repeat("x", trace.MaxLineBytes+1) + "\n"
	var out strings.Builder
	err := WorkerMain(strings.NewReader(in), &out, time.Second, nil)
	var tooLong *trace.LineTooLong
	if !errors.As(err, &tooLong) || tooLong.Offset != 0 {
		t.Fatalf("WorkerMain on an overlong line: %v, want *trace.LineTooLong at 0", err)
	}
}

func TestRecordVerifyInvariants(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"alg_above_opt", func(r *Record) { r.M.ALG = r.M.OPT + 1; r.Seal() }},
		{"negative_expired", func(r *Record) { r.M.Expired = -1; r.Seal() }},
		{"zero_n", func(r *Record) { r.M.N = 0; r.Seal() }},
		{"stale_digest", func(r *Record) { r.M.ALG-- }},
		{"missing_id", func(r *Record) { r.ID = ""; r.Seal() }},
	}
	for _, tc := range cases {
		r := sampleRecord("abcd", 10, 7)
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: clean record rejected: %v", tc.name, err)
		}
		tc.mutate(&r)
		if err := r.Verify(); err == nil {
			t.Errorf("%s: tampered record passed verification", tc.name)
		}
	}
}
