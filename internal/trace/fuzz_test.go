package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
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

// decodeOracle is the contract the hand-written record decoder must meet:
// json.Unmarshal into a fresh fileRecord, then checkRecord and the default
// resolution of DecodeStreamRecordInto.
func decodeOracle(line []byte, n, d int) (StreamRecord, bool) {
	var rec fileRecord
	if json.Unmarshal(line, &rec) != nil || checkRecord(n, 0, rec.T, rec.D, rec.Alts) != nil {
		return StreamRecord{}, false
	}
	out := StreamRecord{T: rec.T, D: rec.D, W: rec.W, Alts: rec.Alts}
	if out.D == 0 {
		out.D = d
	}
	if out.W < 1 {
		out.W = 1
	}
	return out, true
}

func sameRecord(a, b StreamRecord) bool {
	return a.T == b.T && a.D == b.D && a.W == b.W && slices.Equal(a.Alts, b.Alts)
}

// decoderEdgeCases covers the corners of encoding/json's contract the
// hand-written decoder must reproduce. They seed FuzzDecodeStreamRecord, so
// every plain test run checks them against the oracle.
//
// The nesting-depth limit itself is checked by TestDecodeStreamRecordDepth:
// inputs 20 KB deep stall the fuzzer in minimization.
func decoderEdgeCases() []string {
	return []string{
		// keys: exact, folded (ASCII case, U+017F, Kelvin sign), escaped
		`{"T":1,"ALTS":[0]}`, `{"t":1,"altſ":[0,1]}`, `{"AlTſ":[2]}`, `{"\u0074":2,"alts":[1]}`,
		`{"a\u006cts":[0]}`, `{"\u0041LTS":[3]}`, `{"t\u0000":1,"alts":[0]}`, `{"\u212a":1,"alts":[0]}`,
		`{"\ud800":1,"alts":[0]}`, `{"\ud83d\ude00":1,"alts":[0]}`, `{"\udc00\u0074":1,"alts":[0]}`,
		"{\"\xff\":1,\"alts\":[0]}", "{\"t\xc5\":1,\"alts\":[0]}", `{"tt":1,"alts":[0]}`, `{"":1,"alts":[0]}`,
		// duplicate keys: the last value wins; null leaves an int as it is
		`{"t":3,"t":5,"alts":[0]}`, `{"t":3,"t":null,"alts":[0]}`, `{"d":2,"D":null,"alts":[0]}`,
		`{"alts":[0],"alts":[1,2]}`, `{"alts":[1,2],"alts":[3]}`, `{"alts":[1],"alts":null}`,
		// null
		`{"t":null,"d":null,"w":null,"alts":[0]}`, `{"alts":null}`, `{"alts":[null]}`, `{"alts":[1,null]}`,
		`{"t":0,"alts":[3,1],"alts":[null]}`, `{"alts":[3,1],"alts":[null,null]}`, `{"alts":[3,1],"alts":[],"alts":[null]}`,
		`{"alts":[3,1],"alts":null,"alts":[null,2]}`, `{"alts":[2],"alts":[null,null]}`,
		// unknown keys: any valid value
		`{"x":{"y":[1,2,{"z":null}],"v":true,"f":false},"alts":[0]}`, `{"x":"\u00e9\n\"","alts":[0]}`,
		`{"x":[],"y":{},"alts":[0]}`, `{"x":-1.5e+10,"y":0.25E-3,"z":1e999,"alts":[0]}`,
		`{"x":01,"alts":[0]}`, `{"x":tru,"alts":[0]}`, `{"x":nulll,"alts":[0]}`, `{"x":1.,"alts":[0]}`,
		`{"x":1e,"alts":[0]}`, `{"x":-,"alts":[0]}`, `{"x":.5,"alts":[0]}`, `{"x":[1,],"alts":[0]}`,
		`{"x":{"a"},"alts":[0]}`, `{"x":{1:2},"alts":[0]}`, `{"x":[1 2],"alts":[0]}`,
		nestedLine(5), `{"x":[[{"y":[{}]}]],"alts":[0]}`, `{"x":[[{"y":[{]}]],"alts":[0]}`,
		// integers
		`{"t":01,"alts":[0]}`, `{"t":-0,"alts":[0]}`, `{"t":1.0,"alts":[0]}`, `{"t":1e2,"alts":[0]}`,
		`{"t":1E2,"alts":[0]}`, `{"t":9223372036854775807,"alts":[0]}`, `{"t":9223372036854775808,"alts":[0]}`,
		`{"w":-9223372036854775808,"alts":[0]}`, `{"w":-9223372036854775809,"alts":[0]}`,
		`{"t":99999999999999999999,"alts":[0]}`, `{"t":-,"alts":[0]}`, `{"t":+1,"alts":[0]}`, `{"alts":[-0]}`,
		`{"alts":[0.0]}`, `{"alts":[1e0]}`, `{"alts":[00]}`,
		// wrong types
		`{"t":"1","alts":[0]}`, `{"t":true,"alts":[0]}`, `{"t":{},"alts":[0]}`, `{"t":[],"alts":[0]}`,
		`{"alts":[0,"1"]}`, `{"alts":{"0":1}}`, `{"alts":"0"}`, `{"alts":[[0]]}`, `{"alts":[true]}`, `{"alts":0}`,
		// strings
		"{\"x\":\"a\tb\",\"alts\":[0]}", `{"x":"\q","alts":[0]}`, `{"x":"\u12g4","alts":[0]}`,
		`{"x":"\u12","alts":[0]}`, `{"x":"\uD83D\uDE00","alts":[0]}`, "{\"x\":\"\xff\xfe\",\"alts\":[0]}",
		`{"x":"\/\b\f\n\r\t\\","alts":[0]}`, `{"x":"abc`, `{"x":"\`, `{"x":"\u00`,
		// framing
		` {"alts":[0]} `, "\t{\r\n\"alts\" : [ 0 , 1 ] , \"t\" : 2 }\n", `{"alts":[0]}x`, `{"alts":[0]}{}`,
		`[{"alts":[0]}]`, `null`, `{}`, `{"alts":[0],}`, `{,"alts":[0]}`, `{"alts":[0] "t":1}`, `{"alts" [0]}`,
		`{"alts":[0]`, `{"alts":[0`, `{"alts":[0,`, `{"alts":[`, `{"alts":`, `{"alts"`, `{`, "\ufeff{\"alts\":[0]}",
		`{"alts":[0]}` + "\x00", "\v{\"alts\":[0]}",
	}
}

// nestedLine is a record whose unknown key holds arrays nested so that the
// innermost one sits at the given depth, counting the record object.
func nestedLine(depth int) string {
	return `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `,"alts":[0]}`
}

// TestDecodeStreamRecordDepth pins encoding/json's nesting limit: 10000
// levels counting the record object are valid, one more is not.
func TestDecodeStreamRecordDepth(t *testing.T) {
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth, maxNestingDepth + 1} {
		line := []byte(nestedLine(depth))
		_, want := decodeOracle(line, 1, 1)
		_, err := DecodeStreamRecord(line, 1, 1, 0)
		if (err == nil) != want || want != (depth <= maxNestingDepth) {
			t.Fatalf("depth %d: decoder error %v, encoding/json accepts %v", depth, err, want)
		}
	}
}

// FuzzDecodeStreamRecord is a differential fuzzer for the serve ingest
// decoder: for every line and (n, d) contract, DecodeStreamRecordInto on a
// dirty reused buffer and DecodeStreamRecord must both agree with
// decodeOracle on accept/reject, and accepted records must be identical. An
// accepted record also has T >= 0, D >= 1, W >= 1 and distinct alternatives
// in [0,n), and re-encoding it with StreamWriter.Add and decoding the line
// again gives the same record.
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
	for _, line := range decoderEdgeCases() {
		f.Add([]byte(line), uint8(15), uint8(3))
	}

	f.Fuzz(func(t *testing.T, line []byte, n8, d8 uint8) {
		n, d := 1+int(n8%16), 1+int(d8%16)
		want, ok := decodeOracle(line, n, d)
		// A reused slot holds another record's fields and alternatives;
		// none of it may show through.
		got := StreamRecord{T: -7, D: -7, W: -7, Alts: []int{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}
		err := DecodeStreamRecordInto(&got, line, n, d, 0)
		if (err == nil) != ok {
			t.Fatalf("%q under n=%d d=%d: decoder error %v, encoding/json accepts %v", line, n, d, err, ok)
		}
		rec, err := DecodeStreamRecord(line, n, d, 0)
		if (err == nil) != ok {
			t.Fatalf("%q under n=%d d=%d: fresh decoder error %v, encoding/json accepts %v", line, n, d, err, ok)
		}
		if !ok {
			return
		}
		if !sameRecord(got, want) || !sameRecord(rec, want) {
			t.Fatalf("%q under n=%d d=%d: decoded %+v (reused buffer) and %+v (fresh), encoding/json %+v", line, n, d, got, rec, want)
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
		if !sameRecord(again, rec) {
			t.Fatalf("round trip changed %+v into %+v", rec, again)
		}
	})
}
