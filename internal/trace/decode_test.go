package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestDecodeStreamRecordIntoDirtyBuffer pins that a reused decode slot never
// lends the new record what it held before: a null element decodes as 0, as
// in a fresh decode, not as the alternative the slot's last record named
// there. A decoder that appends into the reused slice and skips nulls, as
// encoding/json does, would schedule this request on resource 3.
func TestDecodeStreamRecordIntoDirtyBuffer(t *testing.T) {
	var slot StreamRecord
	if err := DecodeStreamRecordInto(&slot, []byte(`{"t":0,"alts":[3,1]}`), 4, 2, 0); err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"t":0,"alts":[null]}`)
	if err := DecodeStreamRecordInto(&slot, line, 4, 2, 1); err != nil {
		t.Fatal(err)
	}
	want, err := DecodeStreamRecord(line, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecord(slot, want) || len(want.Alts) != 1 || want.Alts[0] != 0 {
		t.Fatalf("reused slot decoded %+v, fresh decode %+v, want alternatives [0]", slot, want)
	}
}

// TestDecodeStreamRecordContract pins a few corners of the encoding/json
// contract by value, independent of the oracle the fuzzer compares against.
func TestDecodeStreamRecordContract(t *testing.T) {
	for _, tc := range []struct {
		line    string
		t, d, w int
		alts    []int
	}{
		{`{"T":5,"ALTS":[1]}`, 5, 3, 1, []int{1}},
		{`{"altſ":[2,0],"d":7}`, 0, 7, 1, []int{2, 0}},
		{`{"t":4,"w":9,"alts":[1]}`, 4, 3, 9, []int{1}},
		{`{"t":2,"t":null,"d":null,"alts":[0],"alts":[1,2]}`, 2, 3, 1, []int{1, 2}},
		{`{"alts":[null,3]}`, 0, 3, 1, []int{0, 3}},
		{`{"t":-0,"x":{"y":[1.5e3,"z",null,true]},"alts":[1]}`, 0, 3, 1, []int{1}},
		{" \t{ \"alts\" : [ 1 ] } \r", 0, 3, 1, []int{1}},
	} {
		rec, err := DecodeStreamRecord([]byte(tc.line), 4, 3, 0)
		want := StreamRecord{T: tc.t, D: tc.d, W: tc.w, Alts: tc.alts}
		if err != nil || !sameRecord(rec, want) {
			t.Errorf("%q: got %+v, %v; want %+v", tc.line, rec, err, want)
		}
	}
	for _, line := range []string{
		`{"t":1.0,"alts":[1]}`, `{"t":1e1,"alts":[1]}`, `{"t":01,"alts":[1]}`,
		`{"t":9223372036854775808,"alts":[1]}`, `{"t":"1","alts":[1]}`, `{"alts":[1]} x`,
		`{"x":"` + "\x01" + `","alts":[1]}`, `{"x":"\a","alts":[1]}`, `{"alts":null}`,
	} {
		if rec, err := DecodeStreamRecord([]byte(line), 4, 3, 0); err == nil {
			t.Errorf("%q accepted as %+v", line, rec)
		}
	}
}

// TestDecodeStreamRecordIntoAllocs pins the hot ingest path: decoding into a
// warm slot allocates nothing.
func TestDecodeStreamRecordIntoAllocs(t *testing.T) {
	line := []byte(`{"t":1234,"alts":[3,11],"d":4}`)
	var slot StreamRecord
	if err := DecodeStreamRecordInto(&slot, line, 16, 4, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeStreamRecordInto(&slot, line, 16, 4, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeStreamRecordInto: %v allocations per record, want 0", allocs)
	}
}

// TestScanJSONLineSliceAllocs pins the zero-copy scanner: lines shorter than
// the reader's buffer come back without a single allocation.
func TestScanJSONLineSliceAllocs(t *testing.T) {
	body := []byte(strings.Repeat(`{"t":1234,"alts":[3,11],"d":4}`+"\n", 500))
	src := bytes.NewReader(body)
	br := bufio.NewReader(src)
	lines := 0
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(body)
		br.Reset(src)
		var off int64
		for {
			_, next, err := ScanJSONLineSlice(br, off)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			off = next
			lines++
		}
	})
	if lines == 0 || allocs != 0 {
		t.Fatalf("ScanJSONLineSlice: %v allocations per 500 lines (%d lines read), want 0", allocs, lines)
	}
}

// TestScanJSONLineSliceLongLines covers lines longer than the reader's buffer
// (copied, returned whole) and the MaxLineBytes cap (discarded through the
// newline, reported as *LineTooLong with next past the line).
func TestScanJSONLineSliceLongLines(t *testing.T) {
	long := `{"x":"` + strings.Repeat("a", 100) + `","alts":[0]}`
	capped := strings.Repeat("b", MaxLineBytes)
	over := strings.Repeat("c", MaxLineBytes+1)
	in := long + "\r\n" + capped + "\n" + over + "\n" + "{}\n" + over
	br := bufio.NewReaderSize(strings.NewReader(in), 16)

	line, next, err := ScanJSONLineSlice(br, 0)
	if err != nil || string(line) != long || next != int64(len(long)+2) {
		t.Fatalf("line longer than the buffer: %q, %d, %v", line, next, err)
	}
	off := next
	line, next, err = ScanJSONLineSlice(br, off)
	if err != nil || len(line) != MaxLineBytes || next != off+int64(MaxLineBytes+1) {
		t.Fatalf("line of exactly MaxLineBytes: %d bytes, next %d, %v", len(line), next, err)
	}
	off = next
	_, next, err = ScanJSONLineSlice(br, off)
	var tooLong *LineTooLong
	if !errors.As(err, &tooLong) || tooLong.Offset != off || next != off+int64(len(over)+1) {
		t.Fatalf("line over MaxLineBytes: next %d, %v; want *LineTooLong at %d, next %d", next, err, off, off+int64(len(over)+1))
	}
	off = next
	line, next, err = ScanJSONLineSlice(br, off)
	if err != nil || string(line) != "{}" {
		t.Fatalf("line after a discarded one: %q, %v", line, err)
	}
	off = next
	// An unterminated line over the cap is too long, not a torn tail.
	_, next, err = ScanJSONLineSlice(br, off)
	if !errors.As(err, &tooLong) || tooLong.Offset != off || next != int64(len(in)) {
		t.Fatalf("unterminated line over MaxLineBytes: next %d, %v", next, err)
	}
}

func BenchmarkDecodeStreamRecordInto(b *testing.B) {
	line := []byte(`{"t":1234,"alts":[3,11],"d":4}`)
	var slot StreamRecord
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeStreamRecordInto(&slot, line, 16, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanJSONLineSlice(b *testing.B) {
	body := []byte(strings.Repeat(`{"t":1234,"alts":[3,11],"d":4}`+"\n", 1000))
	src := bytes.NewReader(body)
	br := bufio.NewReader(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			src.Reset(body)
			br.Reset(src)
		}
		if _, _, err := ScanJSONLineSlice(br, 0); err != nil {
			b.Fatal(err)
		}
	}
}
