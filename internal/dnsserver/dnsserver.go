// Package dnsserver provides the DNS-speaking services of the remote
// experiments: a benign recursive resolver, the attacker's
// man-in-the-middle server ("A simple Python DNS server is created to
// perform this function" — here, Go over the simulated network), and the
// victim-side DNS proxy glue that feeds upstream responses through the
// Connman-analog daemon.
package dnsserver

import (
	"fmt"

	"connlab/internal/dns"
	"connlab/internal/netsim"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// DNSPort is the well-known DNS port.
const DNSPort = 53

// Resolver is a benign authoritative/recursive stand-in with a static
// zone held as a wire-format trie (see zonetrie.go), so one resolver
// answers millions of names without a name→string step.
type Resolver struct {
	Zone *ZoneTrie
	// Queries counts requests served.
	Queries int
	sock    *netsim.UDPSocket
}

// RunResolver binds a resolver on the host's port 53, converting a
// dotted-name zone map into the trie the resolver serves from.
func RunResolver(h *netsim.Host, zone map[string][4]byte) (*Resolver, error) {
	t, err := ZoneTrieFromMap(zone)
	if err != nil {
		return nil, fmt.Errorf("resolver on %s: %w", h.Name, err)
	}
	return RunResolverTrie(h, t)
}

// RunResolverTrie binds a resolver serving the given zone trie — the
// population-scale entry point that skips the map detour entirely.
func RunResolverTrie(h *netsim.Host, zone *ZoneTrie) (*Resolver, error) {
	if zone == nil {
		zone = NewZoneTrie()
	}
	r := &Resolver{Zone: zone}
	sock, err := h.Bind(DNSPort, r.handle)
	if err != nil {
		return nil, fmt.Errorf("resolver on %s: %w", h.Name, err)
	}
	r.sock = sock
	return r, nil
}

func (r *Resolver) handle(dg netsim.Datagram) {
	if v, err := dns.ParseView(dg.Payload); err == nil && r.handleFast(dg, &v) {
		return
	}
	r.handleSlow(dg)
}

// handleFast answers the canonical query shape — header + exactly one
// plain-named question and nothing else — by splicing the question bytes
// straight into a netsim buffer instead of decode + re-encode. The
// output is byte-identical to the slow path; anything unusual falls
// through to it.
func (r *Resolver) handleFast(dg netsim.Datagram, v *dns.View) bool {
	if v.Hdr.Response || v.Hdr.QDCount != 1 ||
		v.Hdr.ANCount != 0 || v.Hdr.NSCount != 0 || v.Hdr.ARCount != 0 {
		return false
	}
	qb, plain, err := v.QuestionBytes()
	if err != nil || !plain {
		return false
	}
	if end, _ := v.QuestionEnd(); end != len(dg.Payload) {
		return false // trailing bytes: let the full decoder judge them
	}
	if len(qb)-4 > 256 {
		return false // name the strict decoder would refuse: let it
	}
	if qb[0] == 0 {
		// The root name is the one name the compressing encoder writes
		// literally rather than as a pointer to the question.
		return false
	}
	r.Queries++
	telemetry.Inc(telemetry.CtrDNSResolved)
	qtype := dns.Type(qb[len(qb)-4])<<8 | dns.Type(qb[len(qb)-3])
	ip, hit := r.Zone.Lookup(qb)
	hit = hit && qtype == dns.TypeA
	rcode := dns.RCodeOK
	an, size := uint16(1), dns.HeaderSize+len(qb)+answerSize
	if !hit {
		rcode, an, size = dns.RCodeNXDomain, 0, size-answerSize
	}
	out := dns.AppendHeader(r.sock.Buffer(size), v.Hdr.ID, v.Hdr.ResponseFlags(rcode), 1, an, 0, 0)
	out = append(out, qb...)
	if hit {
		out = append(out, 0xC0, dns.HeaderSize) // NAME: pointer to the question
		out = append(out, 0, byte(dns.TypeA), 0, byte(dns.ClassIN))
		out = append(out, 0, 0, 1, 44) // TTL 300
		out = append(out, 0, 4, ip[0], ip[1], ip[2], ip[3])
	}
	r.sock.Send(dg.Src, out)
	return true
}

// answerSize is the fast path's A answer: a name pointer, type, class,
// TTL, RDLENGTH and the address.
const answerSize = 2 + 2 + 2 + 4 + 2 + 4

// handleSlow is the original full-decode path, kept for the shapes the
// splice cannot reproduce bit-for-bit (compressed or root question
// names, trailing bytes, extra sections).
func (r *Resolver) handleSlow(dg netsim.Datagram) {
	q, err := dns.Decode(dg.Payload)
	if err != nil || q.Response || len(q.Questions) != 1 {
		return // drop garbage, like a real server
	}
	r.Queries++
	telemetry.Inc(telemetry.CtrDNSResolved)
	resp := dns.NewResponse(q)
	if ip, ok := r.Zone.LookupName(q.Questions[0].Name); ok && q.Questions[0].Type == dns.TypeA {
		resp.Answers = []dns.RR{dns.A(q.Questions[0].Name, 300, ip)}
	} else {
		resp.RCode = dns.RCodeNXDomain
	}
	out, err := resp.Encode()
	if err != nil {
		return
	}
	r.sock.SendTo(dg.Src, out)
}

// WireCrafter crafts a malicious response directly from the query's wire
// bytes, appending to dst (an empty netsim buffer the response is sent
// in). The query comes parsed, its one question validated
// (dns.View.CheckQuestion), so the crafter need not parse it again. The
// exploit package's payloads plug in here through
// exploit.Exploit.AppendAnswer.
type WireCrafter func(dst []byte, query dns.View) ([]byte, error)

// MITM is the attacker's server: it answers every query it sees with a
// crafted response that mirrors the query (ID, question, flags) and
// carries the exploit in the answer record.
type MITM struct {
	// CraftWire splices each response straight from the query packet
	// into the netsim buffer it is sent in.
	CraftWire WireCrafter
	// Queries counts hijacked lookups; Errors counts craft failures.
	Queries int
	Errors  int
	sock    *netsim.UDPSocket
	// size is the last response's length, the buffer size the next
	// one asks for: a payload's answers differ only by the echoed
	// question.
	size int
}

// RunMITMWire binds the malicious server on the host's port 53.
func RunMITMWire(h *netsim.Host, craft WireCrafter) (*MITM, error) {
	m := &MITM{CraftWire: craft}
	sock, err := h.Bind(DNSPort, m.handle)
	if err != nil {
		return nil, fmt.Errorf("mitm on %s: %w", h.Name, err)
	}
	m.sock = sock
	return m, nil
}

// handle parses the header, validates the question without decoding
// it, then lets CraftWire splice the response into a netsim buffer.
func (m *MITM) handle(dg netsim.Datagram) {
	v, err := dns.ParseView(dg.Payload)
	if err != nil || v.Hdr.Response || v.Hdr.QDCount != 1 {
		return
	}
	if v.CheckQuestion() != nil {
		return // malformed question: drop, like a full decode would
	}
	m.Queries++
	telemetry.Inc(telemetry.CtrDNSHijacked)
	buf := m.sock.Buffer(m.size)
	out, err := m.CraftWire(buf, v)
	if err != nil {
		m.Errors++
		return
	}
	if cap(out) != cap(buf) {
		// The answer outgrew the size hint, as a MITM's first one does:
		// send it in a buffer of its own class instead, so no buffer
		// append allocated joins the network's pools.
		out = append(m.sock.Buffer(len(out)), out...)
	}
	m.size = len(out)
	m.sock.Send(dg.Src, out)
}

// Proxy is the victim-side glue: it exposes the daemon's DNS proxy on the
// host, forwarding client queries to the host's configured upstream DNS
// and running every upstream response through the emulated parser before
// relaying it — Connman's dnsproxy behaviour.
type Proxy struct {
	Daemon *victim.Daemon
	// Forwarded counts relayed responses; client queries awaiting an
	// upstream answer are tracked by transaction ID.
	Forwarded int
	host      *netsim.Host
	clientSk  *netsim.UDPSocket
	upSk      *netsim.UDPSocket
	pending   map[uint16]netsim.Addr
}

// RunProxy binds the proxy on the host's port 53 plus an upstream socket.
func RunProxy(h *netsim.Host, d *victim.Daemon) (*Proxy, error) {
	p := &Proxy{Daemon: d, host: h, pending: make(map[uint16]netsim.Addr)}
	var err error
	if p.clientSk, err = h.Bind(DNSPort, p.handleClient); err != nil {
		return nil, fmt.Errorf("proxy on %s: %w", h.Name, err)
	}
	if p.upSk, err = h.BindEphemeral(p.handleUpstream); err != nil {
		return nil, fmt.Errorf("proxy on %s: %w", h.Name, err)
	}
	return p, nil
}

func (p *Proxy) handleClient(dg netsim.Datagram) {
	if p.Daemon.Crashed() {
		return // the daemon is dead; DoS achieved
	}
	h, err := dns.ParseHeader(dg.Payload)
	if err != nil || h.Response {
		return
	}
	p.pending[h.ID] = dg.Src
	p.upSk.SendTo(netsim.Addr{IP: p.host.DNS, Port: DNSPort}, dg.Payload)
}

func (p *Proxy) handleUpstream(dg netsim.Datagram) {
	if p.Daemon.Crashed() {
		return
	}
	h, err := dns.ParseHeader(dg.Payload)
	if err != nil {
		return
	}
	// Responses that carry answers go through the emulated parser for
	// caching — a malicious one kills or hijacks the daemon right here.
	// Empty responses (NXDomain etc.) have nothing to cache and are
	// relayed directly.
	if h.ANCount > 0 {
		if _, err := p.Daemon.HandleResponse(dg.Payload); err != nil {
			return // pre-checks rejected the packet
		}
		if p.Daemon.Crashed() {
			return
		}
	}
	client, ok := p.pending[h.ID]
	if !ok {
		return
	}
	delete(p.pending, h.ID)
	p.Forwarded++
	p.clientSk.SendTo(client, dg.Payload)
}

// Client is a minimal stub resolver on a host, for driving lookups
// through a proxy.
type Client struct {
	sock    *netsim.UDPSocket
	nextID  uint16
	Replies []*dns.Message
}

// NewClient binds a client on an ephemeral port.
func NewClient(h *netsim.Host) (*Client, error) {
	c := &Client{nextID: 0x1000}
	sock, err := h.BindEphemeral(func(dg netsim.Datagram) {
		// Replies outlive the handler, but decoded messages alias the
		// datagram buffer (RR data) and netsim recycles it — so copy.
		if m, err := dns.Decode(append([]byte(nil), dg.Payload...)); err == nil {
			c.Replies = append(c.Replies, m)
		}
	})
	if err != nil {
		return nil, err
	}
	c.sock = sock
	return c, nil
}

// Lookup sends an A query for name to the given server.
func (c *Client) Lookup(server netsim.Addr, name string) (uint16, error) {
	c.nextID++
	q := dns.NewQuery(c.nextID, name, dns.TypeA)
	b, err := q.Encode()
	if err != nil {
		return 0, err
	}
	c.sock.SendTo(server, b)
	return c.nextID, nil
}
