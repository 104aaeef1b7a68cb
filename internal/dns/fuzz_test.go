package dns

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns the seed corpus for the message decoder: well-formed
// packets plus the hostile shapes the paper's attack surface is made of —
// oversized labels, compression-pointer loops, pointers past the end,
// truncation at every interesting boundary.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte

	q := NewQuery(0x1337, "time.iot-vendor.example", TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatalf("encode query: %v", err)
	}
	seeds = append(seeds, wire)

	resp := NewResponse(q)
	resp.Answers = []RR{
		A("time.iot-vendor.example", 300, [4]byte{93, 184, 216, 34}),
		A("time.iot-vendor.example", 300, [4]byte{10, 0, 0, 1}),
	}
	rwire, err := resp.Encode()
	if err != nil {
		t.Fatalf("encode response: %v", err)
	}
	seeds = append(seeds, rwire, rwire[:len(rwire)/2], rwire[:13])

	// Header claiming one question, name = self-referential compression
	// pointer at offset 12 (the classic decompression loop).
	loop := make([]byte, 12, 18)
	loop[4], loop[5] = 0, 1 // QDCount = 1
	loop = append(loop, 0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01)
	seeds = append(seeds, loop)

	// Pointer chain A -> B -> A through two names.
	chain := append([]byte(nil), loop...)
	chain[12], chain[13] = 0xC0, 0x0E
	seeds = append(seeds, chain)

	// A 70-byte label length (over the 63 limit) and a reserved label
	// type.
	bad := append(make([]byte, 12), 70)
	bad = append(bad, bytes.Repeat([]byte{'A'}, 70)...)
	bad = append(bad, 0, 0, 1, 0, 1)
	bad[5] = 1
	seeds = append(seeds, bad)
	seeds = append(seeds, append(make([]byte, 12), 0x80, 0x41, 0x00))

	return seeds
}

// FuzzDecodeMessage: arbitrary bytes must never panic or hang the
// decoder; whatever decodes must re-encode, and the re-encoding must
// decode to the same structure (the codec round-trip is total on the
// decoder's image).
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		// Header invariants the victim daemon's pre-checks rely on: a
		// decoded message carries exactly the counts the header declared.
		h, err := ParseHeader(b)
		if err != nil {
			t.Fatalf("decoded message but header does not parse: %v", err)
		}
		if int(h.QDCount) != len(m.Questions) {
			t.Fatalf("QDCount %d != %d questions", h.QDCount, len(m.Questions))
		}
		if int(h.ANCount) != len(m.Answers) {
			t.Fatalf("ANCount %d != %d answers", h.ANCount, len(m.Answers))
		}
		wire, err := m.Encode()
		if err != nil {
			// Some decodable messages are not encodable (e.g. names the
			// encoder would need to re-compress differently); that is
			// fine as long as decoding stays total.
			return
		}
		again, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\nwire: % x", err, wire)
		}
		if len(again.Questions) != len(m.Questions) || len(again.Answers) != len(m.Answers) {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d questions/answers",
				len(m.Questions), len(m.Answers), len(again.Questions), len(again.Answers))
		}
	})
}

// FuzzSkipName: the header-skipping helper must stay inside the buffer
// and terminate for any input.
func FuzzSkipName(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		off, err := SkipName(b, 12)
		if err != nil {
			return
		}
		if off < 12 || off > len(b) {
			t.Fatalf("SkipName returned offset %d for %d-byte input", off, len(b))
		}
	})
}

// FuzzCheckQuestion: the interning-free validator accepts exactly the
// packets whose first question View.Question decodes, and locates the
// same question end.
func FuzzCheckQuestion(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	q := NewQuery(7, "st000042.iot-vendor.example", TypeA)
	wire, err := q.Encode()
	if err != nil {
		f.Fatal(err)
	}
	for cut := 1; cut <= 5; cut++ { // qclass/qtype truncation, then the name's terminator
		f.Add(wire[:len(wire)-cut])
	}
	// A backward pointer into the header, a forward pointer, a 64-byte
	// label, and a name one byte over the 255-byte limit.
	hdr := []byte{0, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	f.Add(append(append([]byte(nil), hdr...), 0xC0, 0x02, 0, 1, 0, 1))
	f.Add(append(append([]byte(nil), hdr...), 0xC0, 0x20, 0, 1, 0, 1))
	f.Add(append(append(append([]byte(nil), hdr...), 64), append(bytes.Repeat([]byte{'a'}, 64), 0, 0, 1, 0, 1)...))
	long := append([]byte(nil), hdr...)
	for i := 0; i < 4; i++ {
		long = append(long, 63)
		long = append(long, bytes.Repeat([]byte{'b'}, 63)...)
	}
	f.Add(append(long, 0, 0, 1, 0, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		v1, err := ParseView(b)
		if err != nil {
			return
		}
		v2 := v1
		_, qerr := v1.Question()
		cerr := v2.CheckQuestion()
		if (qerr == nil) != (cerr == nil) {
			t.Fatalf("Question err %v, CheckQuestion err %v\n% x", qerr, cerr, b)
		}
		if v1.qEnd != v2.qEnd {
			t.Fatalf("question end %d vs %d\n% x", v1.qEnd, v2.qEnd, b)
		}
	})
}

// TestCheckQuestionZeroAllocs: validating a well-formed question
// builds no name string.
func TestCheckQuestionZeroAllocs(t *testing.T) {
	wire, err := NewQuery(7, "st000042.iot-vendor.example", TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		v, err := ParseView(wire)
		if err != nil || v.CheckQuestion() != nil {
			t.Fatal("valid question rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckQuestion allocated %.1f times per call", allocs)
	}
}
