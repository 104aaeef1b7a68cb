package dnsserver

import (
	"bytes"
	"errors"
	"testing"

	"connlab/internal/dns"
)

// fuzzWireToName parses raw as length-prefixed wire labels and returns
// the dotted form plus the canonical wire encoding. It rejects shapes
// where the dotted form is ambiguous as a map key (labels containing
// '.', empty or oversized labels, oversized names) so the old
// map[string][4]byte stays a faithful oracle.
func fuzzWireToName(raw []byte) (dotted string, wire []byte, ok bool) {
	var labels [][]byte
	total := 0
	i := 0
	for i < len(raw) {
		l := int(raw[i])
		if l == 0 {
			break
		}
		if l > 63 || i+1+l > len(raw) {
			return "", nil, false
		}
		lab := raw[i+1 : i+1+l]
		if bytes.IndexByte(lab, '.') >= 0 {
			return "", nil, false
		}
		labels = append(labels, lab)
		if total += l + 1; total+1 > 255 {
			return "", nil, false
		}
		i += 1 + l
	}
	if len(labels) == 0 {
		return "", nil, false
	}
	var d, w []byte
	for k, lab := range labels {
		if k > 0 {
			d = append(d, '.')
		}
		d = append(d, lab...)
		w = append(w, byte(len(lab)))
		w = append(w, lab...)
	}
	return string(d), append(w, 0), true
}

// fuzzIP derives a deterministic record from a name.
func fuzzIP(s string) [4]byte {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return [4]byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
}

// plainWire reports whether raw is exactly one plain wire name: 1–63
// byte labels, the terminal zero last, 255 bytes at most.
func plainWire(raw []byte) bool {
	for i := 0; i < len(raw); {
		l := int(raw[i])
		if l == 0 {
			return i+1 == len(raw) && len(raw) <= 255
		}
		if l > 63 {
			return false
		}
		i += 1 + l
	}
	return false
}

// FuzzZoneTrie drives the wire-keyed trie against the dotted map it
// replaced: random wire-format names go into both, then every lookup —
// wire with question tails, dotted, and raw garbage — must agree with
// the map byte-for-byte. A twin trie keyed through AddWire with the
// same names' AppendRawName encodings must answer every lookup the same,
// and AddWire fed the raw inputs must refuse exactly the ones that are
// not plain wire names and keep serving the ones it took.
func FuzzZoneTrie(f *testing.F) {
	f.Add([]byte("\x04good\x07example\x00"), []byte("\x03bad\x07example\x00"), []byte{1, 'a', 0})
	f.Add([]byte("\x01a\x01b\x00"), []byte("\x02ab\x00"), []byte("\x01a\x00"))
	f.Add([]byte("\x3fzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz\x00"),
		[]byte{}, []byte{0xC0, 12})
	f.Add([]byte("\x02st\x02st\x02st\x00"), []byte("\x02st\x00"), []byte("\x06st\x00st\x00"))
	f.Add([]byte{0}, []byte("\x01a\x00\x00"), []byte("\x01a"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		trie, wtrie := NewZoneTrie(), NewZoneTrie()
		zone := map[string][4]byte{}
		type cand struct {
			dotted string
			wire   []byte
		}
		var cands []cand
		for i, raw := range [][]byte{a, b, c} {
			dotted, wire, ok := fuzzWireToName(raw)
			if !ok {
				continue
			}
			cands = append(cands, cand{dotted, wire})
			if i < 2 { // insert the first two shapes; the third probes misses
				ip := fuzzIP(dotted)
				zone[dotted] = ip
				if err := trie.Add(dotted, ip); err != nil {
					t.Fatalf("Add(%q): %v", dotted, err)
				}
				key, err := dns.AppendRawName(nil, dotted)
				if err != nil {
					t.Fatalf("AppendRawName(%q): %v", dotted, err)
				}
				if err := wtrie.AddWire(key, ip); err != nil {
					t.Fatalf("AddWire(%v): %v", key, err)
				}
			}
		}
		if wtrie.Len() != trie.Len() {
			t.Fatalf("AddWire twin Len = %d, Add trie %d", wtrie.Len(), trie.Len())
		}
		if trie.Len() != len(zone) {
			t.Fatalf("Len = %d, map has %d", trie.Len(), len(zone))
		}
		for _, cd := range cands {
			wantIP, wantOK := zone[cd.dotted]
			for _, tail := range [][]byte{nil, {0, 1, 0, 1}, c} {
				ip, ok := trie.Lookup(append(append([]byte(nil), cd.wire...), tail...))
				if ok != wantOK || (ok && ip != wantIP) {
					t.Fatalf("Lookup(%q + %v) = %v,%v; map says %v,%v",
						cd.dotted, tail, ip, ok, wantIP, wantOK)
				}
			}
			if ip, ok := trie.LookupName(cd.dotted); ok != wantOK || (ok && ip != wantIP) {
				t.Fatalf("LookupName(%q) = %v,%v; map says %v,%v", cd.dotted, ip, ok, wantIP, wantOK)
			}
		}
		// Raw garbage must never panic, and a hit must be a genuine
		// zone name.
		for _, raw := range [][]byte{a, b, c} {
			ip, ok := trie.Lookup(raw)
			if wip, wok := wtrie.Lookup(raw); wok != ok || wip != ip {
				t.Fatalf("Lookup(%v): Add trie %v,%v; AddWire twin %v,%v", raw, ip, ok, wip, wok)
			}
			if ok {
				dotted, _, parsed := fuzzWireToName(raw)
				if !parsed {
					t.Fatalf("Lookup hit on unparseable wire %v", raw)
				}
				if want, inZone := zone[dotted]; !inZone || ip != want {
					t.Fatalf("Lookup(%v) = %v, map says %v (in zone: %v)", raw, ip, zone[dotted], inZone)
				}
			}
		}
		for _, cd := range cands {
			for _, tail := range [][]byte{nil, {0, 1, 0, 1}, c} {
				q := append(append([]byte(nil), cd.wire...), tail...)
				ip, ok := trie.Lookup(q)
				if wip, wok := wtrie.Lookup(q); wok != ok || wip != ip {
					t.Fatalf("Lookup(%q + %v): Add trie %v,%v; AddWire twin %v,%v", cd.dotted, tail, ip, ok, wip, wok)
				}
			}
		}

		// AddWire on the raw inputs: refusal exactly off plain wire
		// names, and the accepted keys stay prefix-free (each still
		// finds its own, last-written record).
		rtrie := NewZoneTrie()
		raws := map[string][4]byte{}
		for _, raw := range [][]byte{a, b, c} {
			ip := fuzzIP(string(raw))
			err := rtrie.AddWire(raw, ip)
			if plain := plainWire(raw); plain != (err == nil) {
				t.Fatalf("AddWire(%v) = %v; plain wire name: %v", raw, err, plain)
			}
			if err != nil && !errors.Is(err, ErrBadWireName) {
				t.Fatalf("AddWire(%v) = %v, not ErrBadWireName", raw, err)
			}
			if err == nil {
				raws[string(raw)] = ip
			}
		}
		if rtrie.Len() != len(raws) {
			t.Fatalf("raw AddWire Len = %d, want %d", rtrie.Len(), len(raws))
		}
		for key, want := range raws {
			if ip, ok := rtrie.Lookup([]byte(key)); !ok || ip != want {
				t.Fatalf("raw key %v: Lookup = %v,%v, want %v", []byte(key), ip, ok, want)
			}
		}
	})
}
