package dnsserver

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"connlab/internal/dns"
	"connlab/internal/netsim"
)

// wireName encodes a dotted name for Lookup tests, with a question
// tail appended the way handleFast sees it.
func wireName(t testing.TB, name string, tail ...byte) []byte {
	t.Helper()
	labels, err := dns.SplitName(name)
	if err != nil {
		t.Fatalf("SplitName(%q): %v", name, err)
	}
	var w []byte
	for _, l := range labels {
		w = append(w, byte(len(l)))
		w = append(w, l...)
	}
	w = append(w, 0)
	return append(w, tail...)
}

// TestZoneTrieMatchesMap: the trie agrees with the map it replaced on
// hits, misses, prefix traps and overwrites.
func TestZoneTrieMatchesMap(t *testing.T) {
	zone := map[string][4]byte{
		"example":              {1, 1, 1, 1},
		"www.example":          {2, 2, 2, 2},
		"web.example":          {3, 3, 3, 3},
		"w.example":            {4, 4, 4, 4},
		"wwww.example":         {5, 5, 5, 5},
		"deep.www.example":     {6, 6, 6, 6},
		"another-domain.test":  {7, 7, 7, 7},
		"connman.org":          {8, 8, 8, 8},
		"update.connman.org":   {9, 9, 9, 9},
		"updates.connman.org":  {10, 0, 0, 1},
		"a":                    {11, 0, 0, 1},
		"ab":                   {12, 0, 0, 1},
		"abc":                  {13, 0, 0, 1},
		"b.a":                  {14, 0, 0, 1},
		"long-shared-prefix-x": {15, 0, 0, 1},
		"long-shared-prefix-y": {16, 0, 0, 1},
	}
	trie, err := ZoneTrieFromMap(zone)
	if err != nil {
		t.Fatal(err)
	}
	if trie.Len() != len(zone) {
		t.Fatalf("Len = %d, want %d", trie.Len(), len(zone))
	}
	misses := []string{
		"", "x", "example.com", "ww.example", "www.exampl", "www.example2",
		"example.www", "aa", "abcd", "a.b", "www", "long-shared-prefix",
		"long-shared-prefix-z", "sub.w.example",
	}
	for name, want := range zone {
		for _, tail := range [][]byte{nil, {0, 1, 0, 1}, {0xFF, 0xFF, 0xFF, 0xFF}} {
			ip, ok := trie.Lookup(wireName(t, name, tail...))
			if !ok || ip != want {
				t.Errorf("Lookup(%q tail %v) = %v,%v want %v", name, tail, ip, ok, want)
			}
		}
		if ip, ok := trie.LookupName(name); !ok || ip != want {
			t.Errorf("LookupName(%q) = %v,%v want %v", name, ip, ok, want)
		}
		if ip, ok := trie.LookupName(name + "."); !ok || ip != want {
			t.Errorf("LookupName(%q.) = %v,%v", name, ip, ok)
		}
	}
	for _, name := range misses {
		if _, ok := trie.LookupName(name); ok {
			t.Errorf("LookupName(%q) hit, want miss", name)
		}
	}
	// Truncated wire (no terminator) and garbage must miss, not panic.
	if _, ok := trie.Lookup([]byte{3, 'w', 'w', 'w'}); ok {
		t.Error("truncated wire hit")
	}
	if _, ok := trie.Lookup(nil); ok {
		t.Error("nil wire hit")
	}
	// Overwrite keeps map semantics.
	if err := trie.Add("www.example", [4]byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if ip, _ := trie.LookupName("www.example"); ip != ([4]byte{9, 9, 9, 9}) {
		t.Errorf("overwrite: %v", ip)
	}
	if trie.Len() != len(zone) {
		t.Errorf("Len after overwrite = %d", trie.Len())
	}
	// Root name is addable and only matches the root.
	if err := trie.Add("", [4]byte{99, 99, 99, 99}); err != nil {
		t.Fatal(err)
	}
	if ip, ok := trie.Lookup([]byte{0, 0, 1, 0, 1}); !ok || ip != ([4]byte{99, 99, 99, 99}) {
		t.Errorf("root lookup = %v,%v", ip, ok)
	}
	if _, ok := trie.LookupName("nonexistent"); ok {
		t.Error("root entry must not shadow other names")
	}
}

// TestZoneTrieScale: a population-scale zone resolves every name,
// misses near-neighbors, and the arena stays compact.
func TestZoneTrieScale(t *testing.T) {
	const n = 50000
	trie := NewZoneTrie()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("st%06d.iot-vendor.example", i)
		if err := trie.Add(name, [4]byte{20, byte(i >> 16), byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if trie.Len() != n {
		t.Fatalf("Len = %d", trie.Len())
	}
	for _, i := range []int{0, 1, 7, 4999, 25000, n - 1} {
		wire := wireName(t, fmt.Sprintf("st%06d.iot-vendor.example", i), 0, 1, 0, 1)
		ip, ok := trie.Lookup(wire)
		if !ok || ip != ([4]byte{20, byte(i >> 16), byte(i >> 8), byte(i)}) {
			t.Fatalf("station %d: %v,%v", i, ip, ok)
		}
	}
	if _, ok := trie.LookupName(fmt.Sprintf("st%06d.iot-vendor.example", n)); ok {
		t.Error("one-past-the-end name resolved")
	}
	if _, ok := trie.LookupName("st000000.iot-vendor.examples"); ok {
		t.Error("suffix-extended name resolved")
	}
}

// TestZoneTrieLookupZeroAllocs pins the acceptance criterion: lookups
// on the splice fast path — wire bytes in, IP out — are 0 allocs/op,
// and so is the dotted-name twin.
func TestZoneTrieLookupZeroAllocs(t *testing.T) {
	trie := NewZoneTrie()
	for i := 0; i < 1000; i++ {
		if err := trie.Add(fmt.Sprintf("st%06d.iot-vendor.example", i), [4]byte{20, 0, byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wire := wireName(t, "st000777.iot-vendor.example", 0, 1, 0, 1)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok := trie.Lookup(wire); !ok {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Errorf("Lookup: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok := trie.LookupName("st000042.iot-vendor.example"); !ok {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Errorf("LookupName: %v allocs/op, want 0", allocs)
	}
}

// TestResolverSteadyStateZeroAllocs: a full fast-path resolver round —
// query datagram in, spliced answer out — settles to zero allocations
// per lookup once buffers are warm, now that the trie removed the
// decode+intern step.
func TestResolverSteadyStateZeroAllocs(t *testing.T) {
	n := netsim.New()
	server, err := n.AddHost("resolver", netsim.IP{8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.AddHost("client", netsim.IP{10, 0, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	clientSk, err := client.BindEphemeral(func(dg netsim.Datagram) { answered++ })
	if err != nil {
		t.Fatal(err)
	}
	trie := NewZoneTrie()
	if err := trie.Add("good.example", [4]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	res, err := RunResolverTrie(server, trie)
	if err != nil {
		t.Fatal(err)
	}
	query, err := dns.NewQuery(7, "good.example", dns.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	dst := netsim.Addr{IP: server.IP, Port: DNSPort}
	round := func() {
		clientSk.SendTo(dst, query)
		n.Run(4)
	}
	for i := 0; i < 10; i++ {
		round() // warm scratch, pools and queue capacity
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("resolver round: %v allocs/op, want 0", allocs)
	}
	if answered == 0 || res.Queries == 0 {
		t.Fatalf("no answers delivered (answered=%d queries=%d)", answered, res.Queries)
	}
}

// TestAddWireRefusesMalformedKeys: AddWire takes exactly the plain wire
// names (the root name included) and refuses every other key with
// ErrBadWireName, leaving the zone as it was.
func TestAddWireRefusesMalformedKeys(t *testing.T) {
	long := make([]byte, 0, 300)
	for len(long) < 256 {
		long = append(long, 63)
		long = append(long, make([]byte, 63)...)
	}
	long = append(long, 0)
	for _, tc := range []struct {
		name string
		key  []byte
		ok   bool
	}{
		{"root", []byte{0}, true},
		{"plain", []byte("\x04good\x07example\x00"), true},
		{"max-label", append(append([]byte{63}, make([]byte, 63)...), 0), true},
		{"empty", nil, false},
		{"label-over-63", append(append([]byte{64}, make([]byte, 64)...), 0), false},
		{"pointer", []byte{0xC0, 12}, false},
		{"no-terminal-zero", []byte("\x04good"), false},
		{"label-overrun", []byte("\x09good\x00"), false},
		{"trailing-bytes", []byte("\x04good\x00\x00\x01"), false},
		{"over-255", long, false},
	} {
		trie := NewZoneTrie()
		err := trie.AddWire(tc.key, [4]byte{1, 2, 3, 4})
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrBadWireName)) {
			t.Errorf("%s: AddWire = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if want := map[bool]int{true: 1, false: 0}[tc.ok]; trie.Len() != want {
			t.Errorf("%s: Len = %d, want %d", tc.name, trie.Len(), want)
		}
	}
	// A 255-byte name is the longest the encoder writes, and AddWire
	// takes it.
	name := strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." +
		strings.Repeat("c", 63) + "." + strings.Repeat("d", 61)
	key, err := dns.AppendRawName(nil, name)
	if err != nil || len(key) != 255 {
		t.Fatalf("AppendRawName: %d bytes, %v", len(key), err)
	}
	if err := NewZoneTrie().AddWire(key, [4]byte{}); err != nil {
		t.Fatalf("255-byte name refused: %v", err)
	}
}
