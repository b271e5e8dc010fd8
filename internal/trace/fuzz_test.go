package trace

import (
	"bytes"
	"fmt"
	"testing"

	"reqsched/internal/core"
)

// FuzzRead ensures the deserializer never panics and never yields an invalid
// trace on arbitrary input, and that valid outputs survive a round trip.
func FuzzRead(f *testing.F) {
	seed := func(build func(b *core.Builder)) {
		b := core.NewBuilder(3, 2)
		build(b)
		var buf bytes.Buffer
		if err := Write(&buf, b.Build()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(b *core.Builder) { b.Add(0, 0, 1) })
	seed(func(b *core.Builder) { b.AddWindow(2, 5, 2); b.Add(3, 1, 0) })
	f.Add([]byte(`{"n":1,"d":1,"requests":[{"t":0,"alts":[0]}]}`))
	f.Add([]byte(`{"n":0}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"n":2,"d":1,"requests":[{"t":-1,"alts":[0,1]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read returned invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if tr2.NumRequests() != tr.NumRequests() || tr2.N != tr.N || tr2.D != tr.D {
			t.Fatal("round trip changed the trace")
		}
	})
}

// FuzzDecodeStreamRecord drives the serve ingest decoder with arbitrary lines
// under an arbitrary stream contract. It must never panic; an accepted record
// has T >= 0, D >= 1, W >= 1 and distinct alternatives in [0,n); and
// re-encoding it with StreamWriter.Add and decoding the line again gives the
// same record.
func FuzzDecodeStreamRecord(f *testing.F) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 4, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []StreamRecord{
		{T: 0, D: 3, W: 1, Alts: []int{0, 1}},
		{T: 2, D: 5, W: 1, Alts: []int{3}},
		{T: 7, D: 1, W: 6, Alts: []int{2, 0, 1}},
	} {
		if err := sw.Add(r.T, r.D, r.W, r.Alts...); err != nil {
			f.Fatal(err)
		}
	}
	lines := bytes.Split(buf.Bytes(), []byte("\n"))
	for _, line := range lines[1:] { // skip the header
		f.Add(line, uint8(4), uint8(3))
	}
	for _, line := range []string{
		`{"t":-1,"alts":[0,1]}`,
		`{"t":0,"d":-2,"alts":[0]}`,
		`{"t":0,"alts":[]}`,
		`{"t":0,"alts":[1,1]}`,
		`{"t":0,"alts":[9]}`,
		`{"t":0,"w":-5,"alts":[0]}`,
		`{"t":1e3,"alts":[0]}`,
		`{"t":0,"alts":[0]`,
		`not json`,
		``,
	} {
		f.Add([]byte(line), uint8(4), uint8(3))
	}

	f.Fuzz(func(t *testing.T, line []byte, n8, d8 uint8) {
		n, d := 1+int(n8%16), 1+int(d8%16)
		rec, err := DecodeStreamRecord(line, n, d, 0)
		if err != nil {
			return
		}
		if rec.T < 0 || rec.D < 1 || rec.W < 1 {
			t.Fatalf("accepted %+v from %q", rec, line)
		}
		for i, a := range rec.Alts {
			if a < 0 || a >= n {
				t.Fatalf("accepted alternative %d outside [0,%d) from %q", a, n, line)
			}
			for _, b := range rec.Alts[:i] {
				if a == b {
					t.Fatalf("accepted repeated alternative %d from %q", a, line)
				}
			}
		}
		var out bytes.Buffer
		sw, err := NewStreamWriter(&out, n, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Add(rec.T, rec.D, rec.W, rec.Alts...); err != nil {
			t.Fatalf("re-encoding %+v: %v", rec, err)
		}
		enc := bytes.Split(out.Bytes(), []byte("\n"))[1]
		again, err := DecodeStreamRecord(enc, n, d, 0)
		if err != nil {
			t.Fatalf("decoding re-encoded %q: %v", enc, err)
		}
		if again.T != rec.T || again.D != rec.D || again.W != rec.W || fmt.Sprint(again.Alts) != fmt.Sprint(rec.Alts) {
			t.Fatalf("round trip changed %+v into %+v", rec, again)
		}
	})
}
