package campaign

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
)

func scaleScenario() Scenario {
	return Scenario{
		Arch: isa.ArchX86S,
		Kind: exploit.KindCodeInjection,
	}
}

// TestPineappleScaleGolden pins the population-scale Pineapple
// scenario: the 300-station Verbose run's transcript and a digest of
// its netsim event log must match testdata/scale300.golden.
func TestPineappleScaleGolden(t *testing.T) {
	e := New(Config{Workers: 1})
	rep, err := e.RunPineappleScale(ScaleConfig{
		Stations:    300,
		Lookups:     2,
		VictimEvery: 100, // stations 0, 100, 200 are full devices
		Scenario:    scaleScenario(),
		Verbose:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victims != 3 {
		t.Fatalf("victims = %d, want 3", rep.Victims)
	}
	if rep.Shells+rep.Crashes == 0 {
		t.Fatalf("attack had no effect on any victim:\n%s", rep.Transcript())
	}
	if rep.BaselineOK == 0 || rep.AttackTainted == 0 || rep.Hijacked == 0 {
		t.Fatalf("degenerate run:\n%s", rep.Transcript())
	}
	if rep.BaselineTainted != 0 {
		t.Fatalf("legit resolver handed out wrong answers:\n%s", rep.Transcript())
	}
	sum := sha256.Sum256([]byte(strings.Join(rep.Events, "\n")))
	got := rep.Transcript() + fmt.Sprintf("events=%d sha256=%x\n", len(rep.Events), sum)
	want, err := os.ReadFile(filepath.Join("testdata", "scale300.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("scale transcript diverged from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPineappleScaleBaselineVsAttack: the deterministic accounting
// adds up — every light station resolves once in baseline and Lookups
// times under attack, every victim lookup is hijacked, and the
// exploit's answer never passes a station's byte check.
func TestPineappleScaleBaselineVsAttack(t *testing.T) {
	e := New(Config{Workers: 1})
	cfg := ScaleConfig{
		Stations:    120,
		Lookups:     3,
		VictimEvery: 60,
		Scenario:    scaleScenario(),
	}
	rep, err := e.RunPineappleScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lights := cfg.Stations - rep.Victims
	if rep.BaselineOK != lights {
		t.Errorf("baseline ok = %d, want %d\n%s", rep.BaselineOK, lights, rep.Transcript())
	}
	if rep.AttackTainted != lights*cfg.Lookups {
		t.Errorf("attack tainted = %d, want %d\n%s", rep.AttackTainted, lights*cfg.Lookups, rep.Transcript())
	}
	if rep.AttackOK != 0 {
		t.Errorf("attack ok = %d, want 0", rep.AttackOK)
	}
	// The MITM answers every light-station lookup plus every victim
	// phone-home the proxy forwarded.
	if rep.Hijacked < lights*cfg.Lookups {
		t.Errorf("hijacked = %d, want >= %d", rep.Hijacked, lights*cfg.Lookups)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d datagrams in a fully-routed world\n%s", rep.Dropped, rep.Transcript())
	}
	if got := strings.Count(rep.Transcript(), "\n"); got != 5 {
		t.Errorf("transcript shape changed (%d lines):\n%s", got, rep.Transcript())
	}
}

// TestZoneTrieServesPopulation: the shared resolver's trie really is
// the zone — a smoke check that population names resolve through the
// full netsim path (not just unit lookups).
func TestPineappleScaleNoVictims(t *testing.T) {
	e := New(Config{Workers: 1})
	rep, err := e.RunPineappleScale(ScaleConfig{
		Stations: 50,
		Scenario: scaleScenario(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victims != 0 || rep.Shells+rep.Crashes+rep.NoEffect != 0 {
		t.Fatalf("victimless run grew victims: %+v", rep)
	}
	if rep.BaselineOK != 50 || rep.BaselineResolved != 50 {
		t.Fatalf("baseline: %+v", rep)
	}
	if rep.Hijacked != 50 {
		t.Fatalf("hijacked = %d, want 50", rep.Hijacked)
	}
}

// TestStationNames: the fmt-free name helper renders exactly what
// "st%06d" did, including past six digits (cmd/pineapple -stations
// takes any population size), in one allocation for both names.
func TestStationNames(t *testing.T) {
	for _, i := range []int{0, 9, 999_999, 1_000_000, 12_345_678} {
		host, name := stationNames(i)
		if want := fmt.Sprintf("st%06d", i); host != want {
			t.Errorf("stationNames(%d) host = %q, want %q", i, host, want)
		}
		if want := fmt.Sprintf("st%06d.iot-vendor.example", i); name != want {
			t.Errorf("stationNames(%d) name = %q, want %q", i, name, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { stationNames(123_456) }); allocs != 1 {
		t.Errorf("stationNames: %v allocations, want 1", allocs)
	}
}

// TestStationQueryWire: a light station's query, built from
// dns.AppendHeader and dns.AppendRawName, is byte-for-byte what
// dns.NewQuery encodes, the zone key cut from it is the name's wire
// form, and stationQuerySize is its length.
func TestStationQueryWire(t *testing.T) {
	for _, i := range []int{0, 7, 65_535, 65_536, 1_234_567} {
		_, name := stationNames(i)
		want, err := dns.NewQuery(uint16(i), name, dns.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendStationQuery([]byte("arena"), i, name)
		if err != nil {
			t.Fatal(err)
		}
		if got = got[len("arena"):]; string(got) != string(want) {
			t.Errorf("station %d: query %x, NewQuery encodes %x", i, got, want)
		}
		key, _ := dns.AppendRawName(nil, name)
		if string(got[dns.HeaderSize:len(got)-4]) != string(key) {
			t.Errorf("station %d: zone key %x, wire name %x", i, got[dns.HeaderSize:len(got)-4], key)
		}
		if n := stationQuerySize(i); n != len(want) {
			t.Errorf("station %d: stationQuerySize = %d, query is %d bytes", i, n, len(want))
		}
	}
}

// BenchmarkPineappleScaleWorld builds and pumps one connbench
// pineapple-pop world per op (20 000 stations, 2 lookups, a victim every
// 2 500 stations). Recon and payload are cached after the first op, so
// B/op and allocs/op are the world's own: netsim, DNS and the victims.
func BenchmarkPineappleScaleWorld(b *testing.B) {
	e := New(Config{Workers: 1})
	cfg := ScaleConfig{
		Stations: 20000, Lookups: 2, VictimEvery: 2500,
		Scenario: Scenario{Arch: isa.ArchARMS, Kind: exploit.KindRopMemcpy, Protection: LevelWXASLR},
	}
	if _, err := e.RunPineappleScale(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.RunPineappleScale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Shells != rep.Victims || rep.Dropped != 0 {
			b.Fatalf("degenerate world:\n%s", rep.Transcript())
		}
	}
}
