package dnsserver

import (
	"testing"

	"connlab/internal/dns"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/netsim"
)

// fastpathRig is a minimal world: one client host, one server host, and a
// raw client socket for injecting hand-crafted datagrams.
type fastpathRig struct {
	net    *netsim.Network
	server *netsim.Host
	sock   *netsim.UDPSocket
	// clientAddr is the injection socket's endpoint (BindEphemeral hands
	// out ports from 40000, and the rig binds exactly one).
	clientAddr netsim.Addr
	got        [][]byte
}

func newFastpathRig(t *testing.T) *fastpathRig {
	t.Helper()
	n := netsim.New()
	client, err := n.AddHost("client", netsim.IP{10, 0, 0, 9})
	if err != nil {
		t.Fatal(err)
	}
	server, err := n.AddHost("server", netsim.IP{10, 0, 0, 53})
	if err != nil {
		t.Fatal(err)
	}
	r := &fastpathRig{net: n, server: server}
	r.sock, err = client.BindEphemeral(func(dg netsim.Datagram) {
		r.got = append(r.got, append([]byte(nil), dg.Payload...))
	})
	if err != nil {
		t.Fatal(err)
	}
	r.clientAddr = netsim.Addr{IP: client.IP, Port: 40000}
	return r
}

func (r *fastpathRig) send(pkt []byte) {
	r.sock.SendTo(netsim.Addr{IP: r.server.IP, Port: DNSPort}, pkt)
	r.net.Run(16)
}

// header builds a raw 12-byte DNS header.
func rawHeader(id, flags, qd, an, ns, ar uint16) []byte {
	return dns.AppendHeader(nil, id, flags, qd, an, ns, ar)
}

// TestResolverDropsCompressionPointerLoop: a question name that is a
// compression pointer chasing itself must be dropped by both the splice
// fast path (pointers disqualify it) and the full decoder (loops are
// invalid), with no reply and no crash.
func TestResolverDropsCompressionPointerLoop(t *testing.T) {
	r := newFastpathRig(t)
	res, err := RunResolver(r.server, map[string][4]byte{"good.example": {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// QD=1; the question name is a pointer to its own offset (12).
	pkt := rawHeader(0xAB, 0, 1, 0, 0, 0)
	pkt = append(pkt, 0xC0, 0x0C)                               // name: pointer -> itself
	pkt = append(pkt, 0, byte(dns.TypeA), 0, byte(dns.ClassIN)) // type, class
	r.send(pkt)
	if len(r.got) != 0 {
		t.Errorf("got %d replies to a pointer-loop question, want drop", len(r.got))
	}
	if res.Queries != 0 {
		t.Errorf("Queries = %d, want 0 (dropped before counting)", res.Queries)
	}
}

// TestResolverDropsTruncatedMidName: a question whose label length runs
// past the end of the packet must fall off the fast path and be dropped
// by the decoder.
func TestResolverDropsTruncatedMidName(t *testing.T) {
	r := newFastpathRig(t)
	res, err := RunResolver(r.server, map[string][4]byte{"good.example": {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	pkt := rawHeader(0xCD, 0, 1, 0, 0, 0)
	pkt = append(pkt, 7, 'g', 'o') // label claims 7 bytes, packet ends after 2
	r.send(pkt)
	if len(r.got) != 0 || res.Queries != 0 {
		t.Errorf("replies=%d queries=%d, want 0/0 for truncated name", len(r.got), res.Queries)
	}
}

// TestResolverFastPathMatchesSlowPath: the same query answered through the
// splice path and through the original decode path must produce identical
// bytes. The slow path cannot be reached from the wire with a clean
// canonical query (that is the fast path's domain), so it is invoked
// directly.
func TestResolverFastPathMatchesSlowPath(t *testing.T) {
	r := newFastpathRig(t)
	res, err := RunResolver(r.server, map[string][4]byte{"good.example": {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(0x7777, "good.example", dns.TypeA)
	pkt, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r.send(pkt)
	if len(r.got) != 1 {
		t.Fatalf("replies = %d", len(r.got))
	}
	fast := r.got[0]
	if v, err := dns.ParseView(pkt); err != nil || !res.handleFast(netsim.Datagram{Src: r.clientAddr, Payload: pkt}, &v) {
		t.Error("fast path declined the canonical query")
	}
	r.net.Run(16)
	if len(r.got) != 2 || string(r.got[1]) != string(fast) {
		t.Fatalf("direct fast-path reply differs from the delivered one")
	}
	r.got = nil
	res.handleSlow(netsim.Datagram{Src: r.clientAddr, Payload: pkt})
	r.net.Run(16)
	if len(r.got) != 1 {
		t.Fatalf("slow-path replies = %d", len(r.got))
	}
	if string(fast) != string(r.got[0]) {
		t.Errorf("fast path diverges from slow path\nfast %x\nslow %x", fast, r.got[0])
	}
}

// TestMITMWireDropsHeaderOnlyAndCompressed: the wire-splicing MITM must
// drop header-only datagrams (nothing to rewrite the ID into) and
// compressed question names (not spliceable) without counting them as
// hijacked queries or craft errors.
func TestMITMWireDropsHeaderOnlyAndCompressed(t *testing.T) {
	r := newFastpathRig(t)
	ex := exploit.BuildDoS(isa.ArchX86S)
	m, err := RunMITMWire(r.server, ex.AppendAnswer)
	if err != nil {
		t.Fatal(err)
	}

	// Header-only, QD=0: parseable but not a hijackable query.
	r.send(rawHeader(0x01, 0, 0, 0, 0, 0))
	// Header-only but QD=1: the promised question is missing entirely.
	r.send(rawHeader(0x02, 0, 1, 0, 0, 0))
	// QD=1 with a compressed (self-pointing) question name.
	pkt := rawHeader(0x03, 0, 1, 0, 0, 0)
	pkt = append(pkt, 0xC0, 0x0C, 0, byte(dns.TypeA), 0, byte(dns.ClassIN))
	r.send(pkt)

	if len(r.got) != 0 {
		t.Errorf("got %d responses to malformed queries, want drops", len(r.got))
	}
	if m.Queries != 0 || m.Errors != 0 {
		t.Errorf("queries=%d errors=%d, want 0/0", m.Queries, m.Errors)
	}

	// A well-formed query still gets hijacked, with the ID echoed.
	q, err := dns.NewQuery(0xBEEF, "any.example", dns.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	r.send(q)
	if len(r.got) != 1 || m.Queries != 1 {
		t.Fatalf("replies=%d queries=%d, want 1/1", len(r.got), m.Queries)
	}
	h, err := dns.ParseHeader(r.got[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0xBEEF || !h.Response {
		t.Errorf("hijacked response header = %+v", h)
	}
}
