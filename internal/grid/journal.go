package grid

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"reqsched/internal/ratio"
	"reqsched/internal/trace"
)

// Meas is the serializable subset of ratio.Measurement the grid transports
// across process boundaries and journals on disk. The wire form is explicit
// so the journal format stays stable even if Measurement grows fields.
type Meas struct {
	Strategy string  `json:"strategy"`
	Input    string  `json:"input"`
	N        int     `json:"n"`
	D        int     `json:"d"`
	OPT      int     `json:"opt"`
	ALG      int     `json:"alg"`
	Expired  int     `json:"expired"`
	Bound    float64 `json:"bound"`
}

// ToMeasurement converts back to the ratio type the harness folds.
func (m Meas) ToMeasurement() ratio.Measurement {
	return ratio.Measurement{
		Strategy: m.Strategy, Input: m.Input, N: m.N, D: m.D,
		OPT: m.OPT, ALG: m.ALG, Expired: m.Expired, Bound: m.Bound,
	}
}

// MeasOf converts a ratio.Measurement to its wire form.
func MeasOf(m ratio.Measurement) Meas {
	return Meas{
		Strategy: m.Strategy, Input: m.Input, N: m.N, D: m.D,
		OPT: m.OPT, ALG: m.ALG, Expired: m.Expired, Bound: m.Bound,
	}
}

// Record is one completed grid cell: the job's ID, its measurement, and a
// digest binding the two. The digest serves two independent purposes: on the
// worker protocol it catches records corrupted (or fabricated sloppily) by a
// sick worker before they can poison a row, and in the journal it catches
// on-disk corruption on resume.
type Record struct {
	ID     string `json:"id"`
	M      Meas   `json:"m"`
	Digest string `json:"digest"`
}

// digest computes the canonical digest over (ID, M).
func (r Record) digest() string {
	b, err := json.Marshal(struct {
		ID string `json:"id"`
		M  Meas   `json:"m"`
	}{r.ID, r.M})
	if err != nil {
		panic(fmt.Sprintf("grid: marshal record: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// Seal fills in the record's digest.
func (r *Record) Seal() { r.Digest = r.digest() }

// Verify checks the digest and the measurement invariants that hold for
// every honest measurement: ALG is a feasible schedule so 0 <= ALG <= OPT,
// counters are non-negative, and the model parameters are sane. A record
// failing Verify is never folded into grid results — the supervisor retries
// the cell instead.
func (r Record) Verify() error {
	if r.ID == "" {
		return errors.New("grid: record without a job ID")
	}
	if want := r.digest(); r.Digest != want {
		return fmt.Errorf("grid: record %s: digest mismatch (%s != %s)", r.ID, r.Digest, want)
	}
	m := r.M
	if m.ALG < 0 || m.OPT < 0 || m.ALG > m.OPT {
		return fmt.Errorf("grid: record %s: impossible OPT/ALG %d/%d (ALG must be in [0, OPT])", r.ID, m.OPT, m.ALG)
	}
	if m.Expired < 0 {
		return fmt.Errorf("grid: record %s: negative expired count %d", r.ID, m.Expired)
	}
	if m.N < 1 || m.D < 1 {
		return fmt.Errorf("grid: record %s: invalid model n=%d d=%d", r.ID, m.N, m.D)
	}
	return nil
}

// JournalScan diagnoses what a journal read found beyond the good records.
type JournalScan struct {
	// Lines counts the newline-terminated lines examined.
	Lines int
	// Skipped counts terminated lines that failed to parse or verify, or
	// were longer than trace.MaxLineBytes — on-disk corruption; their jobs
	// are simply re-run.
	Skipped int
	// TornOffset is the byte offset of a truncated final line (a crash
	// mid-append), or -1. Resume truncates the file there: the torn tail is
	// treated as absent, exactly as if the crash had hit one record earlier.
	TornOffset int64
}

// ReadJournal reads checkpoint records from r. Records that fail to parse or
// verify are skipped and counted (their cells re-run on resume); a torn
// final line is reported via JournalScan.TornOffset instead of failing the
// whole file. Only I/O failures are returned as errors.
func ReadJournal(r io.Reader) ([]Record, JournalScan, error) {
	scan := JournalScan{TornOffset: -1}
	var recs []Record
	br := bufio.NewReader(r)
	var off int64
	for {
		line, next, err := trace.ScanJSONLineSlice(br, off)
		if err == io.EOF {
			return recs, scan, nil
		}
		var torn *trace.TornTail
		if errors.As(err, &torn) {
			scan.TornOffset = torn.Offset
			return recs, scan, nil
		}
		var tooLong *trace.LineTooLong
		if err != nil && !errors.As(err, &tooLong) {
			return recs, scan, fmt.Errorf("grid: journal read: %w", err)
		}
		off = next
		scan.Lines++
		var rec Record
		if tooLong != nil || json.Unmarshal(line, &rec) != nil || rec.Verify() != nil {
			scan.Skipped++
			continue
		}
		recs = append(recs, rec)
	}
}

// Journal is the append-only JSONL checkpoint file of a grid run. Appends
// are serialized, newline-terminated, and synced, so after a crash the file
// holds every acknowledged record plus at most one torn tail — which
// OpenJournal detects and truncates on resume.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path, scans it, and
// positions it for appending. If resume is false the journal must be empty
// or absent — refusing to silently mix two different runs' checkpoints. On
// resume, a torn final line is truncated away (scan.TornOffset records where)
// and corrupt records are dropped from the returned map, so their cells
// re-run.
func OpenJournal(path string, resume bool) (*Journal, map[string]Record, JournalScan, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, JournalScan{}, err
	}
	recs, scan, err := ReadJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, scan, err
	}
	if !resume && (len(recs) > 0 || scan.Lines > 0 || scan.TornOffset >= 0) {
		f.Close()
		return nil, nil, scan, fmt.Errorf("grid: journal %s already holds %d records (pass resume to continue it, or use a fresh path)", path, len(recs))
	}
	if scan.TornOffset >= 0 {
		if err := f.Truncate(scan.TornOffset); err != nil {
			f.Close()
			return nil, nil, scan, fmt.Errorf("grid: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, scan, err
	}
	done := make(map[string]Record, len(recs))
	for _, rec := range recs {
		done[rec.ID] = rec
	}
	return &Journal{f: f}, done, scan, nil
}

// Append seals rec (computing its digest), writes it as one JSONL line, and
// syncs, so an acknowledged checkpoint survives a crash of the supervisor
// itself.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	rec.Seal()
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("grid: marshal journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("grid: journal append: %w", err)
	}
	return j.f.Sync()
}

// Close closes the underlying file. Safe on nil.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
