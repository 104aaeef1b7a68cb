package netsim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUDPDelivery(t *testing.T) {
	n := New()
	a, err := n.AddHost("a", IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", IP{10, 0, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []Datagram
	// Handlers must copy payload bytes they retain (the buffer is
	// recycled — and poisoned under -tags netsimdebug — on return).
	if _, err := b.Bind(7, func(dg Datagram) {
		dg.Payload = append([]byte(nil), dg.Payload...)
		got = append(got, dg)
	}); err != nil {
		t.Fatal(err)
	}
	sa, err := a.Bind(1234, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa.SendTo(Addr{IP: b.IP, Port: 7}, []byte("ping"))
	n.Run(10)
	if len(got) != 1 || string(got[0].Payload) != "ping" {
		t.Fatalf("delivered = %v", got)
	}
	if got[0].Src.IP != a.IP || got[0].Src.Port != 1234 {
		t.Errorf("src = %v", got[0].Src)
	}
	if n.Delivered != 1 || n.Dropped != 0 {
		t.Errorf("counters = %d/%d", n.Delivered, n.Dropped)
	}
}

func TestPayloadCopiedNotAliased(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", IP{10, 0, 0, 1})
	b, _ := n.AddHost("b", IP{10, 0, 0, 2})
	var got []byte
	_, _ = b.Bind(9, func(dg Datagram) { got = append([]byte(nil), dg.Payload...) })
	s, _ := a.Bind(1000, nil)
	buf := []byte("abc")
	s.SendTo(Addr{IP: b.IP, Port: 9}, buf)
	buf[0] = 'X' // mutate after send
	n.Run(10)
	if string(got) != "abc" {
		t.Errorf("payload = %q, want copy semantics", got)
	}
}

func TestDropsCounted(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", IP{10, 0, 0, 1})
	s, _ := a.Bind(1, nil)
	s.SendTo(Addr{IP: IP{9, 9, 9, 9}, Port: 1}, []byte("x")) // no route
	s.SendTo(Addr{IP: a.IP, Port: 999}, []byte("y"))         // closed port
	n.Run(10)
	if n.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", n.Dropped)
	}
}

func TestRecvQueueWithoutHandler(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", IP{10, 0, 0, 1})
	s, _ := a.Bind(5, nil)
	tx, _ := a.Bind(6, nil)
	tx.SendTo(Addr{IP: a.IP, Port: 5}, []byte("q1"))
	tx.SendTo(Addr{IP: a.IP, Port: 5}, []byte("q2"))
	n.Run(10)
	d1, ok1 := s.Recv()
	d2, ok2 := s.Recv()
	_, ok3 := s.Recv()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("recv availability = %v %v %v", ok1, ok2, ok3)
	}
	if string(d1.Payload) != "q1" || string(d2.Payload) != "q2" {
		t.Errorf("fifo order broken: %q, %q", d1.Payload, d2.Payload)
	}
}

func TestBindErrors(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", IP{10, 0, 0, 1})
	if _, err := a.Bind(53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(53, nil); err == nil {
		t.Error("duplicate bind accepted")
	}
	if _, err := n.AddHost("a", IP{10, 0, 0, 3}); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := n.AddHost("c", IP{10, 0, 0, 1}); err == nil {
		t.Error("duplicate IP accepted")
	}
	if _, err := a.BindEphemeral(nil); err != nil {
		t.Error("ephemeral bind failed")
	}
}

// TestAddHostRetryAfterRefusal: a host refused for a taken address
// leaves its name free, so the same name can be added at a free one.
func TestAddHostRetryAfterRefusal(t *testing.T) {
	n := New()
	if _, err := n.AddHost("a", IP{10, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("b", IP{10, 0, 0, 1}); err == nil {
		t.Fatal("duplicate IP accepted")
	}
	b, err := n.AddHost("b", IP{10, 0, 0, 2})
	if err != nil {
		t.Fatalf("retry after a refused address: %v", err)
	}
	if got := n.route(IP{10, 0, 0, 2}); got != b {
		t.Errorf("route(10.0.0.2) = %v, want the retried host", got)
	}
}

// TestAssociatePicksStrongestThenName: a station joins the
// strongest AP carrying its SSID, and an equal signal goes to the lower
// AP name whatever order the APs were added in.
func TestAssociatePicksStrongestThenName(t *testing.T) {
	for _, tc := range []struct {
		name string
		aps  []AccessPoint
		want string
	}{
		{"strongest", []AccessPoint{
			{Name: "weak", SSID: "net", Signal: 10},
			{Name: "strong", SSID: "net", Signal: 90},
			{Name: "other", SSID: "x", Signal: 99},
		}, "strong"},
		{"tie-by-name", []AccessPoint{
			{Name: "b-ap", SSID: "net", Signal: 50},
			{Name: "a-ap", SSID: "net", Signal: 50},
			{Name: "c-ap", SSID: "net", Signal: 50},
		}, "a-ap"},
		{"tie-loses-to-stronger", []AccessPoint{
			{Name: "a-ap", SSID: "net", Signal: 50},
			{Name: "z-ap", SSID: "net", Signal: 51},
			{Name: "b-ap", SSID: "net", Signal: 50},
		}, "z-ap"},
	} {
		n := New()
		for i := range tc.aps {
			n.AddAP(&tc.aps[i])
		}
		h, _ := n.AddHost("dev", IP{})
		st := h.Station("net")
		ap, err := st.Associate()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ap.Name != tc.want || st.AP != ap {
			t.Errorf("%s: joined %s (st.AP %s), want %s", tc.name, ap.Name, st.AP.Name, tc.want)
		}
	}
}

func TestAssociationAndDHCP(t *testing.T) {
	n := New()
	n.Verbose = true
	n.AddAP(&AccessPoint{
		Name: "router", SSID: "home", Signal: 50,
		PoolBase: IP{192, 168, 1, 100}, Gateway: IP{192, 168, 1, 1}, DNS: IP{8, 8, 8, 8},
	})
	h, _ := n.AddHost("dev", IP{})
	st := h.Station("home")
	ap, err := st.Associate()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Name != "router" {
		t.Errorf("associated to %s", ap.Name)
	}
	if h.IP != (IP{192, 168, 1, 101}) {
		t.Errorf("lease = %s", h.IP)
	}
	if h.DNS != (IP{8, 8, 8, 8}) || h.Gateway != (IP{192, 168, 1, 1}) {
		t.Errorf("config = dns %s gw %s", h.DNS, h.Gateway)
	}
	if len(n.Events) == 0 {
		t.Error("no events logged")
	}

	// Second station gets the next lease.
	h2, _ := n.AddHost("dev2", IP{})
	if _, err := h2.Station("home").Associate(); err != nil {
		t.Fatal(err)
	}
	if h2.IP != (IP{192, 168, 1, 102}) {
		t.Errorf("second lease = %s", h2.IP)
	}
}

func TestReassociationToStrongerAP(t *testing.T) {
	n := New()
	n.AddAP(&AccessPoint{
		Name: "legit", SSID: "home", Signal: 50,
		PoolBase: IP{192, 168, 1, 100}, DNS: IP{8, 8, 8, 8},
	})
	h, _ := n.AddHost("dev", IP{})
	st := h.Station("home")
	if _, err := st.Associate(); err != nil {
		t.Fatal(err)
	}
	oldIP := h.IP

	n.AddAP(&AccessPoint{
		Name: "rogue", SSID: "home", Signal: 99,
		PoolBase: IP{172, 16, 0, 100}, DNS: IP{172, 16, 0, 1},
	})
	ap, err := st.Associate()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Name != "rogue" {
		t.Fatalf("stayed on %s", ap.Name)
	}
	if h.DNS != (IP{172, 16, 0, 1}) {
		t.Errorf("dns = %s, want rogue resolver", h.DNS)
	}
	// Old address released: sending to it drops.
	a, _ := n.AddHost("probe", IP{192, 168, 1, 2})
	s, _ := a.Bind(1, nil)
	s.SendTo(Addr{IP: oldIP, Port: 1}, []byte("x"))
	n.Run(4)
	if n.Dropped != 1 {
		t.Errorf("old lease still routed (dropped=%d)", n.Dropped)
	}

	// Re-associating to the same best AP is a no-op.
	ip := h.IP
	if _, err := st.Associate(); err != nil {
		t.Fatal(err)
	}
	if h.IP != ip {
		t.Error("no-op re-association changed the lease")
	}
}

func TestAssociateNoAP(t *testing.T) {
	n := New()
	h, _ := n.AddHost("dev", IP{})
	if _, err := h.Station("ghost").Associate(); err == nil {
		t.Error("associated to a non-existent SSID")
	}
}

func TestIPString(t *testing.T) {
	if (IP{1, 2, 3, 4}).String() != "1.2.3.4" {
		t.Error("IP.String broken")
	}
	if (Addr{IP: IP{1, 2, 3, 4}, Port: 53}).String() != "1.2.3.4:53" {
		t.Error("Addr.String broken")
	}
	if !(IP{}).IsZero() || (IP{1}).IsZero() {
		t.Error("IsZero broken")
	}
}

// TestBindEphemeralMany: the per-host cursor hands out >1000 ephemeral
// ports in O(1) each, skipping explicitly bound ports, and the first
// port on a fresh host stays 40000 (recorded transcripts pin it).
func TestBindEphemeralMany(t *testing.T) {
	n := New()
	h, err := n.AddHost("h", IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bind(40002, nil); err != nil {
		t.Fatal(err)
	}
	want := []uint16{40000, 40001, 40003, 40004}
	for i, w := range want {
		s, err := h.BindEphemeral(nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.port != w {
			t.Fatalf("bind %d: port %d, want %d", i, s.port, w)
		}
	}
	for i := 0; i < 1200; i++ {
		if _, err := h.BindEphemeral(nil); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
	}
	if len(h.sockets) != 1+len(want)+1200 {
		t.Fatalf("socket count %d", len(h.sockets))
	}
}

// TestBindEphemeralExhaustion: once the whole range is bound the error
// surfaces instead of looping forever.
func TestBindEphemeralExhaustion(t *testing.T) {
	n := New()
	h, _ := n.AddHost("h", IP{10, 0, 0, 1})
	for i := 0; i < ephemeralHi-ephemeralLo; i++ {
		if _, err := h.BindEphemeral(nil); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
	}
	if _, err := h.BindEphemeral(nil); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

// TestDHCPLeaseCarry: the lease counter carries across octets instead
// of wrapping inside octet 3, so one AP serves >255 stations; small
// counts keep the historical addresses.
func TestDHCPLeaseCarry(t *testing.T) {
	n := New()
	ap := n.AddAP(&AccessPoint{
		Name: "ap", SSID: "net", Signal: 50,
		PoolBase: IP{10, 0, 0, 0}, Gateway: IP{10, 0, 0, 1}, DNS: IP{8, 8, 8, 8},
	})
	_ = ap
	seen := make(map[IP]bool)
	for i := 0; i < 600; i++ {
		h, err := n.AddHost(fmt.Sprintf("st%04d", i), IP{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Station("net").Associate(); err != nil {
			t.Fatalf("station %d: %v", i, err)
		}
		if seen[h.IP] {
			t.Fatalf("station %d: duplicate lease %s", i, h.IP)
		}
		seen[h.IP] = true
		switch i {
		case 0:
			if h.IP != (IP{10, 0, 0, 1}) {
				t.Fatalf("first lease %s", h.IP)
			}
		case 255:
			if h.IP != (IP{10, 0, 1, 0}) {
				t.Fatalf("lease 256 = %s, want carry into octet 2", h.IP)
			}
		}
	}
}

// fanoutWorld builds a world whose traffic exercises every delivery
// shape: multi-generation fan-out (each relay forwards to two peers
// while the hop budget lasts), port-closed drops, no-route drops, and a
// handler-less socket that retains datagrams.
func fanoutWorld(t *testing.T, hosts int) *Network {
	t.Helper()
	n := New()
	n.Verbose = true
	socks := make([]*UDPSocket, hosts)
	for i := 0; i < hosts; i++ {
		h, err := n.AddHost(fmt.Sprintf("h%03d", i), IP{10, 0, byte(i >> 8), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		i := i
		sk, err := h.Bind(7, func(dg Datagram) {
			hops := dg.Payload[0]
			if hops == 0 {
				return
			}
			body := []byte{hops - 1}
			for _, d := range []int{2*i + 1, 2*i + 2} {
				dst := Addr{IP: IP{10, 0, byte(d >> 8), byte(d)}, Port: 7}
				if d%7 == 3 {
					dst.Port = 9 // closed port: deterministic drop
				}
				if d >= hosts {
					dst.IP = IP{99, 99, byte(d >> 8), byte(d)} // no route
				}
				socks[i].SendTo(dst, body)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		socks[i] = sk
		if _, err := h.Bind(11, nil); err != nil { // handler-less sink
			t.Fatal(err)
		}
	}
	// Generation 0: a few roots, plus traffic into the handler-less port.
	for _, root := range []int{0, 1, 5} {
		socks[root].SendTo(Addr{IP: IP{10, 0, 0, byte(root)}, Port: 7}, []byte{6})
	}
	socks[2].SendTo(Addr{IP: IP{10, 0, 0, 4}, Port: 11}, []byte("keep"))
	return n
}

// fanoutSummary renders what testdata/fanout.golden pins: the
// counters, the epoch and step counts, then the event log.
func fanoutSummary(n *Network, steps int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "delivered=%d dropped=%d epochs=%d steps=%d\n", n.Delivered, n.Dropped, n.Epochs(), steps)
	for _, ev := range n.Events {
		b.WriteString(ev)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkFanoutGolden fails t unless n has drained and its transcript,
// counters, epoch count and step count match testdata/fanout.golden.
func checkFanoutGolden(t *testing.T, what string, n *Network, steps int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fanout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if n.Pending() != 0 {
		t.Fatalf("%s: queue not drained", what)
	}
	if got := fanoutSummary(n, steps); got != want {
		t.Errorf("%s: diverged from golden:\n got %q\nwant %q",
			what, strings.SplitN(got, "\n", 2)[0], strings.SplitN(want, "\n", 2)[0])
	}
}

// TestShardedRunDeterministic: one unbounded Run of the fan-out world
// reproduces the recorded golden (captured when the pump still had a
// multi-shard mode, whose output had to equal the sequential one).
func TestShardedRunDeterministic(t *testing.T) {
	n := fanoutWorld(t, 64)
	checkFanoutGolden(t, "run", n, n.Run(100000))
	if n.Delivered == 0 || n.Dropped == 0 {
		t.Fatalf("world exercises too little: %d delivered, %d dropped", n.Delivered, n.Dropped)
	}
}

// TestShardedBudgetFallback: a budgeted Run stops after exactly its
// budget, and running the rest gives the same golden as one Run.
func TestShardedBudgetFallback(t *testing.T) {
	for _, budget := range []int{1, 2, 5, 9, 17} {
		n := fanoutWorld(t, 64)
		steps := n.Run(budget)
		if steps != budget {
			t.Fatalf("budget %d: ran %d steps", budget, steps)
		}
		checkFanoutGolden(t, fmt.Sprintf("run(%d)+run", budget), n, steps+n.Run(100000))
	}
}

// TestStepInterleavesWithRun: Steps followed by Run give the same
// golden as one Run.
func TestStepInterleavesWithRun(t *testing.T) {
	n := fanoutWorld(t, 64)
	steps := 0
	for i := 0; i < 3 && n.Step(); i++ {
		steps++
	}
	checkFanoutGolden(t, "3 steps+run", n, steps+n.Run(100000))
}

// TestAssociateCollisionKeepsState: a DHCP lease that collides with an
// address in use fails without side effects — the host stays routable
// at its old lease, associated to its old AP, and the rogue AP's lease
// counter is not consumed.
func TestAssociateCollisionKeepsState(t *testing.T) {
	n := New()
	home := n.AddAP(&AccessPoint{
		Name: "home", SSID: "net", Signal: 50,
		PoolBase: IP{10, 0, 0, 0}, DNS: IP{10, 0, 0, 53},
	})
	h, _ := n.AddHost("dev", IP{})
	st := h.Station("net")
	if _, err := st.Associate(); err != nil {
		t.Fatal(err)
	}
	if h.IP != (IP{10, 0, 0, 1}) {
		t.Fatalf("lease = %s", h.IP)
	}
	var got int
	if _, err := h.Bind(7, func(Datagram) { got++ }); err != nil {
		t.Fatal(err)
	}
	probe, _ := n.AddHost("static", IP{172, 16, 0, 1})
	rogue := n.AddAP(&AccessPoint{
		Name: "rogue", SSID: "net", Signal: 99,
		PoolBase: IP{172, 16, 0, 0}, DNS: IP{172, 16, 0, 1},
	})
	if _, err := st.Associate(); err == nil {
		t.Fatal("colliding lease accepted")
	}
	if h.IP != (IP{10, 0, 0, 1}) || h.DNS != (IP{10, 0, 0, 53}) {
		t.Errorf("host reconfigured: ip %s dns %s", h.IP, h.DNS)
	}
	if st.AP != home {
		t.Errorf("association moved: ap %s, want %s", st.AP.Name, home.Name)
	}
	if rogue.nextLease != 0 {
		t.Errorf("rogue lease counter consumed: %d", rogue.nextLease)
	}
	s, _ := probe.Bind(1, nil)
	s.SendTo(Addr{IP: IP{10, 0, 0, 1}, Port: 7}, []byte("x"))
	n.Run(4)
	if got != 1 || n.Dropped != 0 {
		t.Errorf("old lease unroutable: delivered %d, dropped %d", got, n.Dropped)
	}
}

// TestPumpRecyclesLargeReplies: once a first generation has filled the
// size classes and sized the delivery queue, a ping-pong round whose
// answers are 1.3 KiB (a MITM exploit answer) allocates nothing per
// delivered datagram, however many answers are in flight at once —
// whether the sink copies its answer in (SendTo) or builds it in a
// Buffer it hands to Send, as the MITM and the resolver do.
func TestPumpRecyclesLargeReplies(t *testing.T) {
	for _, owned := range []bool{false, true} {
		t.Run(map[bool]string{false: "copy", true: "owned"}[owned], func(t *testing.T) {
			testPumpRecyclesLargeReplies(t, owned)
		})
	}
}

func testPumpRecyclesLargeReplies(t *testing.T, owned bool) {
	const stations = 200
	n := New()
	sink, err := n.AddHost("sink", IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	answer := make([]byte, 1300)
	var srv *UDPSocket
	if srv, err = sink.Bind(53, func(dg Datagram) {
		if owned {
			srv.Send(dg.Src, append(srv.Buffer(len(answer)), answer...))
		} else {
			srv.SendTo(dg.Src, answer)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	clients := make([]*UDPSocket, stations)
	for i := range clients {
		h, err := n.AddHost(fmt.Sprintf("st%03d", i), IP{10, 1, 0, byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if clients[i], err = h.BindEphemeral(func(dg Datagram) { got += len(dg.Payload) }); err != nil {
			t.Fatal(err)
		}
	}
	query := []byte("st-query")
	round := func() {
		for _, c := range clients {
			c.SendTo(Addr{IP: sink.IP, Port: 53}, query)
		}
		if steps := n.Run(1 << 20); steps != 2*stations {
			t.Fatalf("round delivered %d datagrams, want %d", steps, 2*stations)
		}
	}
	round()
	allocs := testing.AllocsPerRun(20, round)
	if per := allocs / (2 * stations); per > 0.01 {
		t.Fatalf("%.3f allocations per delivered datagram (%.0f per round), want ~0", per, allocs)
	}
	if n.Dropped != 0 || got != 22*stations*len(answer) {
		t.Fatalf("dropped %d, answer bytes %d", n.Dropped, got)
	}
}

// TestGrownBufferFiledUnderFloorClass: a buffer whose capacity is not a
// class size (an owner appended past what Buffer gave it) is filed under
// the largest class it can stand in for, never the one above, so every
// later getBuf gets at least the capacity it asked for.
func TestGrownBufferFiledUnderFloorClass(t *testing.T) {
	caps := []int{0, 1, minBuf - 1, maxBuf + 1}
	for size := minBuf; size <= 4096; size++ {
		caps = append(caps, size)
	}
	for c := 0; c < numClasses; c++ {
		caps = append(caps, classSize(c)-1, classSize(c), classSize(c)+1)
	}
	for _, size := range caps {
		n := New()
		n.adopted = true // keep the stash out of the free lists
		n.putBuf(make([]byte, 0, size))
		filed := -1
		for c := range n.free {
			for _, b := range n.free[c] {
				if filed >= 0 || cap(b) != size {
					t.Fatalf("cap %d: free lists hold a stray buffer (cap %d)", size, cap(b))
				}
				filed = c
			}
		}
		want := -1 // the largest class the capacity covers; giants are not kept
		for c := 0; c < numClasses && size <= maxBuf; c++ {
			if classSize(c) <= size {
				want = c
			}
		}
		if filed != want {
			t.Fatalf("cap %d: filed under class %d, want %d", size, filed, want)
		}
		if filed >= 0 && cap(n.getBuf(classSize(filed))) < classSize(filed) {
			t.Fatalf("cap %d: getBuf(%d) returned less", size, classSize(filed))
		}
	}

	// The same through the owned-send path: grow a Buffer past its class
	// with append, Send it, and every buffer the free lists hold after
	// delivery must still cover its class.
	n := New()
	n.adopted = true
	h, _ := n.AddHost("h", IP{10, 0, 0, 1})
	if _, err := h.Bind(7, func(Datagram) {}); err != nil {
		t.Fatal(err)
	}
	s, _ := h.Bind(8, nil)
	grown := 0
	for _, size := range []int{100, 1300, 1600, 3000} {
		b := s.Buffer(size)
		b = append(b, make([]byte, cap(b)+1)...)
		if classSize(sizeClass(cap(b))) != cap(b) {
			grown++
		}
		s.Send(Addr{IP: h.IP, Port: 7}, b)
	}
	n.Run(10)
	if grown == 0 {
		t.Fatal("append grew every buffer to an exact class size; the case tests nothing")
	}
	for c := range n.free {
		for _, b := range n.free[c] {
			if cap(b) < classSize(c) || len(b) != 0 {
				t.Fatalf("class %d (%d bytes) holds a buffer of len %d cap %d", c, classSize(c), len(b), cap(b))
			}
		}
	}
}

// TestReleaseCarriesBuffersAcrossWorlds: worlds built, pumped and
// released in parallel hand their idle buffers on; every world that
// adopts leftovers gets empty buffers that cover their classes and an
// empty queue, and the stash never holds more than maxStash entries.
// The race detector (scripts/check.sh runs this package under -race)
// catches leftovers handed to two live worlds at once.
func TestReleaseCarriesBuffersAcrossWorlds(t *testing.T) {
	const workers, worlds = 4, 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < worlds; i++ {
				if err := releaseWorld(w*worlds + i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	stash.Lock()
	held := len(stash.entries)
	stash.Unlock()
	if held == 0 || held > maxStash {
		t.Fatalf("stash holds %d entries, want 1..%d", held, maxStash)
	}
}

// releaseWorld builds one world, adopts what the stash offers, checks
// it, pumps replies of a few sizes through it and releases it.
func releaseWorld(seed int) error {
	n := New()
	n.adopt()
	for c := range n.free {
		for _, b := range n.free[c] {
			if len(b) != 0 || cap(b) < classSize(c) {
				return fmt.Errorf("world %d adopted a buffer of len %d cap %d in class %d", seed, len(b), cap(b), c)
			}
		}
	}
	if len(n.pending) != 0 {
		return fmt.Errorf("world %d adopted a queue of %d datagrams", seed, len(n.pending))
	}
	sink, err := n.AddHost("sink", IP{10, 0, 0, 1})
	if err != nil {
		return err
	}
	size := 64 << (seed % 5)
	var srv *UDPSocket
	if srv, err = sink.Bind(53, func(dg Datagram) {
		b := srv.Buffer(size)
		for len(b) < size {
			b = append(b, byte(seed))
		}
		srv.Send(dg.Src, b)
	}); err != nil {
		return err
	}
	bad := 0
	var clients []*UDPSocket
	for i := 0; i < 32; i++ {
		h, err := n.AddHost(fmt.Sprintf("st%02d", i), IP{10, 1, 0, byte(i)})
		if err != nil {
			return err
		}
		c, err := h.BindEphemeral(func(dg Datagram) {
			for _, x := range dg.Payload {
				if x != byte(seed) {
					bad++
				}
			}
		})
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}
	for round := 0; round < 3; round++ {
		for _, c := range clients {
			c.SendTo(Addr{IP: sink.IP, Port: 53}, []byte("q"))
		}
		n.Run(1 << 10)
	}
	if bad != 0 || n.Delivered != 3*2*len(clients) {
		return fmt.Errorf("world %d: %d bad bytes, %d delivered", seed, bad, n.Delivered)
	}
	n.Release()
	for c := range n.free {
		if len(n.free[c]) != 0 {
			return fmt.Errorf("world %d kept class %d after Release", seed, c)
		}
	}
	return nil
}

// TestVerboseTextMatchesFmt: the strconv renderings of addresses and
// association events are byte-for-byte the fmt text the recorded event
// logs hold.
func TestVerboseTextMatchesFmt(t *testing.T) {
	ips := []IP{{}, {1, 2, 3, 4}, {255, 255, 255, 255}, {10, 0, 100, 9}, {172, 16, 42, 1}}
	for _, ip := range ips {
		if got, want := ip.String(), fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3]); got != want {
			t.Errorf("IP.String = %q, fmt %q", got, want)
		}
		for _, port := range []uint16{0, 53, 40000, 65535} {
			a := Addr{IP: ip, Port: port}
			if got, want := a.String(), fmt.Sprintf("%s:%d", a.IP, a.Port); got != want {
				t.Errorf("Addr.String = %q, fmt %q", got, want)
			}
		}
	}
	for _, ap := range []AccessPoint{
		{Name: "home-router", SSID: "HomeIoT", Signal: 50, Gateway: IP{192, 168, 1, 1}, DNS: IP{8, 8, 8, 8}},
		{Name: "pineapple", SSID: `quote"s \ and "tabs"` + "\t\x00\xff", Signal: -7},
		{Name: "ünï", SSID: "日本 ", Signal: 1 << 30},
	} {
		h := &Host{Name: "st000042", IP: IP{10, 1, 0, 43}}
		if got, want := h.associatedEvent(&ap), fmt.Sprintf("%s associated to %q (ap %s, signal %d)", h.Name, ap.SSID, ap.Name, ap.Signal); got != want {
			t.Errorf("associated event = %q, fmt %q", got, want)
		}
		if got, want := h.leaseEvent(&ap), fmt.Sprintf("%s dhcp lease %s gw %s dns %s", h.Name, h.IP, ap.Gateway, ap.DNS); got != want {
			t.Errorf("lease event = %q, fmt %q", got, want)
		}
	}
}

// TestSizeClasses: every payload size up to maxBuf maps to the smallest
// class that holds it, and that class wastes at most a quarter.
func TestSizeClasses(t *testing.T) {
	if got := classSize(numClasses - 1); got != maxBuf {
		t.Fatalf("top class %d, want %d", got, maxBuf)
	}
	for size := 0; size <= maxBuf; size++ {
		c := sizeClass(size)
		if c < 0 || c >= numClasses {
			t.Fatalf("size %d: class %d out of range", size, c)
		}
		if got := classSize(c); got < size || got > max(minBuf, size+size/4) {
			t.Fatalf("size %d: class %d holds %d bytes", size, c, got)
		}
		if c > 0 && classSize(c-1) >= size {
			t.Fatalf("size %d: class %d is not the smallest (%d holds %d)", size, c, c-1, classSize(c-1))
		}
	}
}

// TestGiantPayloadsNotKept: a payload past maxBuf is delivered intact
// in an exact-size buffer, which is dropped rather than kept afterwards.
func TestGiantPayloadsNotKept(t *testing.T) {
	n := New()
	h, _ := n.AddHost("h", IP{10, 0, 0, 1})
	got := -1
	if _, err := h.Bind(7, func(dg Datagram) { got = len(dg.Payload) }); err != nil {
		t.Fatal(err)
	}
	s, _ := h.Bind(8, nil)
	s.SendTo(Addr{IP: h.IP, Port: 7}, make([]byte, maxBuf+1))
	n.Run(1)
	if got != maxBuf+1 {
		t.Fatalf("delivered %d bytes, want %d", got, maxBuf+1)
	}
	for c := range n.free {
		if len(n.free[c]) != 0 {
			t.Fatalf("class %d kept %d buffers", c, len(n.free[c]))
		}
	}
}
