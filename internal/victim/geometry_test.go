package victim_test

import (
	"bytes"
	"testing"

	"connlab/internal/dns"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/victim"
)

// dnsAnswerPacket frames encoded answer-name bytes as a minimal one-answer
// DNS response that survives the daemon's header pre-checks: QR set, one
// question ("a" IN A), one answer whose name is the given label run
// followed by the terminator and a zero-rdlength TXT body.
func dnsAnswerPacket(name []byte) []byte {
	pkt := []byte{0x13, 0x37, 0x80, 0, 0, 1, 0, 1, 0, 0, 0, 0}
	pkt = append(pkt, 1, 'a', 0, 0, 1, 0, 1)
	pkt = append(pkt, name...)
	pkt = append(pkt, 0)
	pkt = append(pkt, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0)
	return pkt
}

// labelsOf returns an encoded label run of the given total length (a
// multiple of 64): maximal 63-byte labels of 'A'.
func labelsOf(t *testing.T, n int) []byte {
	t.Helper()
	if n%64 != 0 {
		t.Fatalf("labelsOf: %d not a multiple of 64", n)
	}
	lab := append([]byte{63}, bytes.Repeat([]byte{'A'}, 63)...)
	return bytes.Repeat(lab, n/64)
}

// TestFrameFPOffByOne drives the fp-framed off-by-one build end to end on
// both ISAs: a name that exactly fills the buffer slips its terminating
// NUL one byte past it (the slack the widened bound check forgives) into
// the saved frame pointer's low byte; the caller's next fp-relative
// dereference then walks attacker bytes and faults. One byte shorter is
// harmless; one label more is caught by the bound check.
func TestFrameFPOffByOne(t *testing.T) {
	opts := victim.BuildOpts{Frame: victim.FrameFP, Bounded: true, Slack: 1}
	bs := int(opts.BufSize())
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			d, err := victim.NewDaemon(arch, opts, kernel.Config{})
			if err != nil {
				t.Fatal(err)
			}

			// Benign name: parses clean.
			res, err := d.HandleResponse(dnsAnswerPacket(labelsOf(t, 64)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != kernel.StatusReturned || d.Crashed() {
				t.Fatalf("benign packet crashed fp build: %v", res)
			}

			// A long name whose last label is rejected before any write
			// reaches the buffer edge: 16 sixty-byte labels stop at offset
			// 976, then a 63-byte label fails the check (976+63+2 > bs+1).
			// The parser reports a bad response without corruption. (A run
			// of maximal labels is not a clean probe: the copy admitted at
			// offset 960 already plants its trailing byte at out[bs].)
			deep := append(bytes.Repeat(append([]byte{60}, bytes.Repeat([]byte{'A'}, 60)...), 16),
				labelsOf(t, 64)...)
			res, err = d.HandleResponse(dnsAnswerPacket(deep))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != kernel.StatusReturned || d.Crashed() {
				t.Fatalf("over-slack packet should be rejected, not crash: %v", res)
			}

			// Exactly the buffer size: terminator lands at buffer[bs], the
			// saved frame pointer's low byte, and the caller faults.
			res, err = d.HandleResponse(dnsAnswerPacket(labelsOf(t, bs)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == kernel.StatusReturned || !d.Crashed() {
				t.Fatalf("off-by-one packet did not crash fp build: %v", res)
			}
		})
	}
}

// TestHeapAdjacentOverflow drives the heap-site build on both ISAs: the
// name buffer and the callback record are adjacent bump allocations, so
// an oversized name rewrites the record's handler slot and the dispatch
// after the copy jumps through attacker bytes.
func TestHeapAdjacentOverflow(t *testing.T) {
	opts := victim.BuildOpts{Site: victim.SiteHeap}
	bs := int(opts.BufSize())
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			d, err := victim.NewDaemon(arch, opts, kernel.Config{})
			if err != nil {
				t.Fatal(err)
			}

			// Benign: record intact, dispatch hits cache_flush, clean parse —
			// repeatedly, since the arena rewinds per request.
			for i := 0; i < 3; i++ {
				res, err := d.HandleResponse(dnsAnswerPacket(labelsOf(t, 64)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != kernel.StatusReturned || d.Crashed() {
					t.Fatalf("benign packet %d crashed heap build: %v", i, res)
				}
			}

			// Overflow through the record: the handler slot at the aligned
			// buffer size now holds label bytes and the dispatch faults.
			res, err := d.HandleResponse(dnsAnswerPacket(labelsOf(t, bs+64)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == kernel.StatusReturned || !d.Crashed() {
				t.Fatalf("overflow packet did not crash heap build: %v", res)
			}
		})
	}
}

// TestHeapArenaCapacity: the heap-site parser allocates a name buffer and
// a callback record per answer and rewinds only per request, so a benign
// response with 64 A records fills more of the arena than a 32 KiB one
// holds. The daemon must return normally from it on both ISAs.
func TestHeapArenaCapacity(t *testing.T) {
	q := dns.NewQuery(0x64, "arena.example", dns.TypeA)
	resp := dns.NewResponse(q)
	for i := 0; i < 64; i++ {
		resp.Answers = append(resp.Answers, dns.A("arena.example", 60, [4]byte{10, 0, 1, byte(i)}))
	}
	pkt, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			d, err := victim.NewDaemon(arch, victim.BuildOpts{Site: victim.SiteHeap}, kernel.Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.HandleResponse(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != kernel.StatusReturned || d.Crashed() {
				t.Fatalf("64-answer benign response crashed the heap build: %v", res)
			}
		})
	}
}

// TestValidateRejectsUnsupportedGeometry pins the validator's refusal
// matrix for fragment combinations the codegen does not support.
func TestValidateRejectsUnsupportedGeometry(t *testing.T) {
	bad := []victim.BuildOpts{
		{Site: victim.SiteHeap, Frame: victim.FrameFP},
		{Site: victim.SiteHeap, Canary: true},
		{Frame: victim.FrameFP, Canary: true},
		{Bounded: true, Patched: true},
		{Slack: 1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
		if _, err := victim.BuildProgram(isa.ArchX86S, o); err == nil {
			t.Errorf("BuildProgram(%+v) = nil error, want rejection", o)
		}
	}
	good := []victim.BuildOpts{
		{},
		{Frame: victim.FrameFP, Bounded: true, Slack: 1},
		{Site: victim.SiteHeap},
		{Variant: victim.VariantDnsmasq, Canary: true, Patched: true},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}

// TestFrameModelGeometry pins the compiled ground truth for the new
// geometries against hand-computed layout facts.
func TestFrameModelGeometry(t *testing.T) {
	fp := victim.BuildOpts{Frame: victim.FrameFP, Bounded: true, Slack: 1}
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		fi := victim.FrameModel(arch, fp)
		if fi.RetOffset != victim.NameBufSize || fi.Reach != victim.NameBufSize+1 {
			t.Errorf("%s fp: got %+v", arch, fi)
		}
		heap := victim.FrameModel(arch, victim.BuildOpts{Site: victim.SiteHeap})
		if heap.RetOffset != victim.NameBufSize || heap.Reach != 0 || len(heap.NullOffsets) != 0 {
			t.Errorf("%s heap: got %+v", arch, heap)
		}
	}
	// Legacy geometry still flows through the same model.
	if got := victim.RetOffsetFor(isa.ArchX86S, victim.BuildOpts{}); got != victim.X86RetOffset {
		t.Errorf("x86 legacy ret offset = %d", got)
	}
	if got := victim.NullOffsetsFor(isa.ArchARMS, victim.BuildOpts{}); len(got) != 1 || got[0] != victim.ARMNullOffset {
		t.Errorf("arm legacy null offsets = %v", got)
	}
}
