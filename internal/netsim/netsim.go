// Package netsim simulates the network environment of the paper's remote
// experiments (Fig. 1): hosts with UDP sockets, Wi-Fi access points that
// broadcast SSIDs at a signal strength, stations that associate to the
// strongest AP carrying their preferred SSID, and DHCP configuration
// (address, gateway, DNS server) granted on association.
//
// The Wi-Fi Pineapple attack of §III-D is expressible directly: a rogue
// AP clones the trusted SSID at a stronger signal; the victim station
// re-associates; the rogue DHCP hands it a resolver the attacker runs.
//
// Delivery is deterministic: Run and Step pump a single FIFO on the
// calling goroutine, exactly as every recorded experiment expects.
package netsim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"connlab/internal/telemetry"
)

// IP is an IPv4 address.
type IP [4]byte

// String renders dotted quad.
func (ip IP) String() string { return string(ip.append(make([]byte, 0, 15))) }

// append appends the dotted quad to dst.
func (ip IP) append(dst []byte) []byte {
	for i, b := range ip {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(b), 10)
	}
	return dst
}

// IsZero reports the unset address.
func (ip IP) IsZero() bool { return ip == IP{} }

// Addr is an IP:port endpoint.
type Addr struct {
	IP   IP
	Port uint16
}

// String implements fmt.Stringer.
func (a Addr) String() string { return string(a.append(make([]byte, 0, 21))) }

// append appends ip:port to dst.
func (a Addr) append(dst []byte) []byte {
	return strconv.AppendUint(append(a.IP.append(dst), ':'), uint64(a.Port), 10)
}

// Datagram is one UDP packet in flight.
type Datagram struct {
	Src, Dst Addr
	Payload  []byte
}

// Handler consumes a datagram delivered to a socket. It runs synchronously
// inside Network.Run or Network.Step, on the calling goroutine.
//
// The payload-recycling contract: the payload buffer is recycled the
// moment the handler returns. Handlers that retain payload bytes —
// directly, or through aliasing decoders such as dns.View — must copy
// them first. Builds with `-tags netsimdebug` poison every recycled
// buffer with 0xAA bytes, so a handler that breaks the contract sees
// its retained alias turn to garbage instead of silently reading
// whatever datagram reused the buffer next. The same holds for a
// buffer handed to UDPSocket.Send: it belongs to the network from the
// call on.
type Handler func(dg Datagram)

// UDPSocket is a bound port on a host.
type UDPSocket struct {
	host    *Host
	port    uint16
	handler Handler
	queue   []Datagram
}

// SendTo queues a datagram to dst. The payload is copied into a pooled
// buffer, so the caller's slice is free for reuse immediately.
func (s *UDPSocket) SendTo(dst Addr, payload []byte) {
	s.Send(dst, append(s.Buffer(len(payload)), payload...))
}

// Buffer returns an empty pooled payload buffer with room for size
// bytes, for a reply built in place and handed to Send. Appending past
// its capacity is allowed: the grown buffer is pooled by what it holds.
func (s *UDPSocket) Buffer(size int) []byte { return s.host.net.getBuf(size) }

// Send queues p to dst and takes ownership of it: the network recycles
// p once it is delivered or dropped, so the caller must not touch p,
// or anything sharing its backing array, after the call. p normally
// comes from Buffer.
func (s *UDPSocket) Send(dst Addr, p []byte) {
	s.host.net.enqueue(Datagram{Src: Addr{IP: s.host.IP, Port: s.port}, Dst: dst, Payload: p})
}

// Recv pops one queued datagram for sockets without a handler.
func (s *UDPSocket) Recv() (Datagram, bool) {
	if len(s.queue) == 0 {
		return Datagram{}, false
	}
	dg := s.queue[0]
	s.queue = s.queue[1:]
	return dg, true
}

// Host is one simulated machine.
type Host struct {
	Name string
	net  *Network

	// IP is the host address (static or DHCP-assigned).
	IP IP
	// Gateway and DNS come from DHCP (or static configuration).
	Gateway IP
	DNS     IP

	// sockets holds the bound sockets sorted by port.
	sockets []*UDPSocket
	station Station

	// ephemeral is the next-port cursor for BindEphemeral: instead of
	// re-probing from the bottom of the range on every bind (O(n²) over
	// n sockets), each bind starts where the previous one left off.
	ephemeral uint16

	// lessor is the AP whose lease table routes IP (nil for a static or
	// unset address), and slot the host's index in that table.
	lessor *AccessPoint
	slot   uint32
}

// Bind opens a UDP socket on port with an optional handler.
func (h *Host) Bind(port uint16, handler Handler) (*UDPSocket, error) {
	i, exists := h.socket(port)
	if exists {
		return nil, fmt.Errorf("netsim: %s: port %d already bound", h.Name, port)
	}
	s := &UDPSocket{host: h, port: port, handler: handler}
	h.sockets = slices.Insert(h.sockets, i, s)
	return s, nil
}

// socket reports where port's socket sits in h.sockets (or would be
// inserted) and whether it is bound.
func (h *Host) socket(port uint16) (int, bool) {
	if k := len(h.sockets); k == 0 || h.sockets[k-1].port < port {
		return k, false // above every bound port: BindEphemeral's usual case
	}
	return slices.BinarySearchFunc(h.sockets, port, func(s *UDPSocket, p uint16) int { return int(s.port) - int(p) })
}

// Ephemeral port range handed out by BindEphemeral.
const (
	ephemeralLo = 40000
	ephemeralHi = 50000
)

// BindEphemeral opens a socket on a free high port. Ports are assigned
// from a per-host cursor over [40000, 50000): a fresh host gets 40000,
// the next bind 40001, and so on, wrapping and skipping explicitly
// bound ports. Binding k sockets costs O(k), not O(k²): until the
// cursor wraps, each port lies above every bound one, so it is known
// free without a search and appends to the sorted socket list.
func (h *Host) BindEphemeral(handler Handler) (*UDPSocket, error) {
	if h.ephemeral < ephemeralLo || h.ephemeral >= ephemeralHi {
		h.ephemeral = ephemeralLo
	}
	for tries := 0; tries < ephemeralHi-ephemeralLo; tries++ {
		port := h.ephemeral
		h.ephemeral++
		if h.ephemeral >= ephemeralHi {
			h.ephemeral = ephemeralLo
		}
		if _, taken := h.socket(port); taken {
			continue
		}
		return h.Bind(port, handler)
	}
	return nil, fmt.Errorf("netsim: %s: ephemeral ports exhausted", h.Name)
}

// Station returns the host's Wi-Fi station with its preferred SSID set.
func (h *Host) Station(preferredSSID string) *Station {
	h.station.host = h
	h.station.Preferred = preferredSSID
	return &h.station
}

// AccessPoint is a Wi-Fi AP: an SSID broadcast at a signal strength, plus
// the DHCP configuration it grants on association.
type AccessPoint struct {
	Name   string
	SSID   string
	Signal int // arbitrary units; stations pick the strongest

	// DHCP configuration handed to clients.
	PoolBase IP // first assignable address
	Gateway  IP
	DNS      IP

	nextLease uint32
	// leased routes the AP's pool: leased[k] is the host holding lease
	// slot k, the address k+1 past PoolBase (carried across the last
	// three octets, modulo 2^24), or nil once that host moved on.
	leased []*Host
}

// leaseMask keeps lease arithmetic inside the last three octets.
const leaseMask = 1<<24 - 1

// lease24 is the last three octets of ip as a number.
func lease24(ip IP) uint32 { return uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3]) }

// leaseIP is the address of lease slot k of ap's pool.
func (ap *AccessPoint) leaseIP(k uint32) IP {
	ip := ap.PoolBase
	v := lease24(ip) + k + 1
	ip[1], ip[2], ip[3] = byte(v>>16), byte(v>>8), byte(v)
	return ip
}

// leaseHolder returns the host holding ip as a lease of ap, or nil:
// the slot arithmetic inverts leaseIP, and a slot whose host has since
// moved to another address does not count. The caller has checked that
// ip shares the pool's first octet.
func (ap *AccessPoint) leaseHolder(ip IP) *Host {
	if k := (lease24(ip) - lease24(ap.PoolBase) - 1) & leaseMask; k < uint32(len(ap.leased)) {
		if h := ap.leased[k]; h != nil && h.IP == ip {
			return h
		}
	}
	return nil
}

// Station is a Wi-Fi client interface.
type Station struct {
	host      *Host
	Preferred string
	AP        *AccessPoint
}

// Network is the simulated world.
type Network struct {
	hosts map[string]*Host
	aps   []*AccessPoint
	// byIP routes static addresses; leases route through their AP's
	// table (route).
	byIP map[IP]*Host

	// pending is the delivery queue; head indexes the next undelivered
	// item. step compacts the live tail to the front once head passes
	// half the length, so the backing array tracks the datagrams in
	// flight, not every datagram of the run.
	pending []Datagram
	head    int

	// free holds recycled payload buffers by size class: free[c] is a
	// stack of buffers with capacity at least classSize(c) (exactly, for
	// buffers that were not grown). Buffer pops, delivery pushes back
	// once a handler returns. adopted records that the world has tried
	// the stash of released worlds' lists (see Release).
	free    freeLists
	adopted bool

	// Epoch accounting: the current BFS generation opened at genStart
	// with genSize datagrams, genLeft of them still undelivered. It
	// lives here rather than in Run so any mix of Step and budgeted Run
	// calls closes exactly the generations one unbounded Run does.
	genLeft, genSize int
	genStart         int64
	epochs           int

	// Delivered counts datagrams handed to sockets, for reporting.
	Delivered int
	// Dropped counts undeliverable datagrams.
	Dropped int
	// Log collects human-readable events when Verbose is set.
	Verbose bool
	Events  []string

	// tel is the network's telemetry shard (nil while disabled), taken at
	// construction like every instrumented component.
	tel *telemetry.Shard

	// attempt tags this world's epoch spans with the campaign attempt ID
	// that drove it (the per-device splitmix64 seed; zero for shared or
	// standalone worlds), correlating netsim lanes with campaign stage
	// spans in the exported trace.
	attempt uint64
}

// New returns an empty network.
func New() *Network {
	return &Network{
		hosts: make(map[string]*Host),
		byIP:  make(map[IP]*Host),
		tel:   telemetry.Handle(),
	}
}

// SetAttempt tags subsequent epoch spans with the campaign attempt ID
// (the per-device splitmix64 seed) so netsim trace lanes correlate with
// the campaign stage spans of the attempt that drove the traffic.
func (n *Network) SetAttempt(id uint64) { n.attempt = id }

// Epochs reports how many delivery generations have completed. A
// generation is everything queued when its first datagram is delivered,
// so the count depends only on the traffic pattern — one epoch per BFS
// generation of the datagram lineage tree — never on how the pump was
// split into Step and Run calls.
func (n *Network) Epochs() int { return n.epochs }

// Grow makes room for hosts more hosts, so a world built at a known
// population does not rehash its host table as it fills.
func (n *Network) Grow(hosts int) {
	m := make(map[string]*Host, len(n.hosts)+hosts)
	for name, h := range n.hosts {
		m[name] = h
	}
	n.hosts = m
}

// AddHost creates a host; ip may be zero for DHCP-configured hosts.
func (n *Network) AddHost(name string, ip IP) (*Host, error) {
	if _, dup := n.hosts[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate host %q", name)
	}
	if !ip.IsZero() && n.route(ip) != nil {
		return nil, fmt.Errorf("netsim: address %s already in use", ip)
	}
	h := &Host{Name: name, net: n, IP: ip}
	n.hosts[name] = h
	if !ip.IsZero() {
		n.byIP[ip] = h
	}
	return h, nil
}

// route returns the host at ip, or nil: the lease tables first (a
// range check per AP), then the static addresses. At most one host
// holds an address, so the order only saves the map probe for the
// population's leased stations.
func (n *Network) route(ip IP) *Host {
	for _, ap := range n.aps {
		if ap.PoolBase[0] != ip[0] {
			continue
		}
		if h := ap.leaseHolder(ip); h != nil {
			return h
		}
	}
	return n.byIP[ip]
}

// AddAP registers an access point.
func (n *Network) AddAP(ap *AccessPoint) *AccessPoint {
	n.aps = append(n.aps, ap)
	return ap
}

// ErrNoAP is returned when no AP broadcasts the preferred SSID.
var ErrNoAP = errors.New("netsim: no access point with preferred SSID in range")

// Associate performs the station's scan-and-join: it picks the
// strongest-signal AP broadcasting its preferred SSID (the physical-layer
// behaviour the Pineapple abuses: "The Wi-Fi Pineapple is able to
// broadcast a stronger signal than the legitimate access point, causing
// our targeted machine to switch its connection"; equal signals go to
// the lower AP name, for determinism) and then runs the DHCP exchange,
// reconfiguring the host's address, gateway and DNS. A lease that
// collides with an address in use fails before anything changes: the
// station stays on its old AP at its old, still-routable address.
func (s *Station) Associate() (*AccessPoint, error) {
	n := s.host.net
	var best *AccessPoint
	for _, ap := range n.aps {
		if ap.SSID == s.Preferred && (best == nil || ap.Signal > best.Signal ||
			ap.Signal == best.Signal && ap.Name < best.Name) {
			best = ap
		}
	}
	if best == nil {
		return nil, ErrNoAP
	}
	if s.AP == best {
		return best, nil
	}

	// DHCP: DISCOVER/OFFER/REQUEST/ACK collapsed into the lease grant.
	// The lease counter carries across the last three octets so one AP
	// can serve far more than the 255 clients a single octet holds; for
	// pools that never overflow octet 3 the addresses are identical to
	// the historical single-octet arithmetic.
	h := s.host
	lease := best.leaseIP(best.nextLease)
	if owner := n.route(lease); owner != nil && owner != h {
		return nil, fmt.Errorf("netsim: dhcp pool collision at %s", lease)
	}

	s.AP = best
	n.unroute(h)
	k := best.nextLease & leaseMask
	best.nextLease++
	if k < uint32(len(best.leased)) {
		best.leased[k] = h // the counter wrapped the pool
	} else {
		best.leased = append(best.leased, h)
	}
	h.lessor, h.slot = best, k
	h.IP = lease
	h.Gateway = best.Gateway
	h.DNS = best.DNS
	if n.Verbose {
		n.Events = append(n.Events, h.associatedEvent(best), h.leaseEvent(best))
	}
	return best, nil
}

// unroute releases h's address: its lease slot or its static entry.
func (n *Network) unroute(h *Host) {
	if ap := h.lessor; ap != nil {
		ap.leased[h.slot] = nil
		h.lessor = nil
	} else {
		delete(n.byIP, h.IP)
	}
}

// associatedEvent is fmt's "%s associated to %q (ap %s, signal %d)".
func (h *Host) associatedEvent(ap *AccessPoint) string {
	b := append(make([]byte, 0, 64), h.Name...)
	b = append(b, " associated to "...)
	b = strconv.AppendQuote(b, ap.SSID)
	b = append(b, " (ap "...)
	b = append(b, ap.Name...)
	b = append(b, ", signal "...)
	b = strconv.AppendInt(b, int64(ap.Signal), 10)
	return string(append(b, ')'))
}

// leaseEvent is fmt's "%s dhcp lease %s gw %s dns %s".
func (h *Host) leaseEvent(ap *AccessPoint) string {
	b := append(make([]byte, 0, 80), h.Name...)
	b = h.IP.append(append(b, " dhcp lease "...))
	b = ap.Gateway.append(append(b, " gw "...))
	b = ap.DNS.append(append(b, " dns "...))
	return string(b)
}

// Payload size classes: four per power of two from minBuf to maxBuf
// (64, 80, 96, 112, 128, 160, ...), so a buffer is at most 25 % larger
// than the payload it was made for. Larger payloads get exact-size
// buffers that are never kept, so a burst of giants does not pin memory.
const (
	minShift   = 6
	minBuf     = 1 << minShift
	maxBuf     = 64 << 10
	numClasses = 41 // classSize(numClasses-1) == maxBuf
)

// sizeClass returns the smallest class whose buffers hold size bytes.
func sizeClass(size int) int {
	if size <= minBuf {
		return 0
	}
	e := bits.Len(uint(size-1)) - 1 // 1<<e < size <= 2<<e
	// Inside that octave classes step by 1<<(e-2); round up.
	return (e-minShift)*4 + (size-1-1<<e)>>(e-2) + 1
}

// classSize is the capacity of class c's buffers.
func classSize(c int) int {
	if c == 0 {
		return minBuf
	}
	return (5 + (c-1)%4) << (minShift + (c-1)/4 - 2)
}

// freeLists are a world's idle payload buffers by size class.
type freeLists [numClasses][][]byte

// getBuf pops a recycled payload buffer of at least size bytes from
// its size class, or returns a fresh one. A world's first miss adopts
// the idle lists of a released world, if the stash holds any.
func (n *Network) getBuf(size int) []byte {
	if size > maxBuf {
		return make([]byte, 0, size)
	}
	c := sizeClass(size)
	if len(n.free[c]) == 0 && !n.adopted {
		n.adopt()
	}
	if k := len(n.free[c]); k > 0 {
		b := n.free[c][k-1]
		n.free[c] = n.free[c][:k-1]
		return b
	}
	return make([]byte, 0, classSize(c))
}

// putBuf pushes a payload buffer back onto a size class. Every
// delivered or dropped payload comes back here (handler-less sockets
// keep theirs), so a class holds at most the world's peak in-flight
// count of its size. Under -tags netsimdebug the buffer is poisoned
// first, so handler code that retained an alias reads 0xAA instead of
// the next datagram that reuses the backing array.
//
// Buffers from getBuf have exactly a class size. One an owner grew with
// append (Send) has whatever capacity append picked, and is filed under
// the largest class it can stand in for, never the one above. Giants
// past maxBuf, and buffers below minBuf, are not kept.
func (n *Network) putBuf(b []byte) {
	poisonBuf(b)
	size := cap(b)
	if size < minBuf || size > maxBuf {
		return
	}
	c := sizeClass(size)
	if classSize(c) > size {
		c--
	}
	n.free[c] = append(n.free[c], b[:0])
}

// The stash carries idle payload buffers from one world to the next: a
// process that builds worlds back to back (a benchmark's ops, a
// campaign's per-device worlds) would otherwise allocate every world's
// buffers, and grow its delivery queue, afresh. Release files a world's
// free lists and drained queue here and a new world adopts one entry on
// its first miss. Entries are whole worlds' leftovers, so the bound is a
// count: maxStash entries of at most one world each (a 20 000-station
// Pineapple world leaves 27 MB of buffers and a 2 MB queue), past which
// Release leaves them to the GC.
const maxStash = 4

// leftovers are what a released world hands on.
type leftovers struct {
	free freeLists
	// queue is the drained delivery queue's backing array, all zero.
	queue []Datagram
}

var stash struct {
	sync.Mutex
	entries []*leftovers
}

// adopt takes the most recently released world's leftovers, if any:
// its buffers join n's (empty, or the world would not have missed), and
// its queue replaces n's if it is larger.
func (n *Network) adopt() {
	n.adopted = true
	stash.Lock()
	k := len(stash.entries)
	if k == 0 {
		stash.Unlock()
		return
	}
	lo := stash.entries[k-1]
	stash.entries[k-1] = nil
	stash.entries = stash.entries[:k-1]
	stash.Unlock()
	for c := range n.free {
		n.free[c] = append(lo.free[c], n.free[c]...)
	}
	if cap(lo.queue) > cap(n.pending) {
		n.pending = append(lo.queue, n.pending[n.head:]...)
		n.head = 0
	}
}

// Release hands the world's idle payload buffers, and its delivery
// queue once drained, to the next world built in this process. The
// world stays usable; it just starts over with empty lists. Call it once
// the world's owner is done pumping: like every recycled payload, none
// of those buffers may still be referenced.
func (n *Network) Release() {
	lo := new(leftovers)
	idle := false
	for c := range n.free {
		lo.free[c], n.free[c] = n.free[c], nil
		idle = idle || len(lo.free[c]) > 0
	}
	if n.Pending() == 0 && cap(n.pending) > 0 {
		// A drained queue is all zero: step clears every slot it pops.
		lo.queue, n.pending, n.head = n.pending[:0], nil, 0
		idle = true
	}
	if !idle {
		return
	}
	stash.Lock()
	defer stash.Unlock()
	if len(stash.entries) < maxStash {
		stash.entries = append(stash.entries, lo)
	}
}

// enqueue appends to the delivery queue, sampling the depth it grew to.
func (n *Network) enqueue(dg Datagram) {
	if len(n.pending) == cap(n.pending) {
		// Double rather than take append's 1.25× steps: a generation
		// can queue tens of thousands of datagrams at once.
		n.pending = slices.Grow(n.pending, len(n.pending)+1)
	}
	n.pending = append(n.pending, dg)
	if n.tel != nil {
		n.tel.Inc(telemetry.CtrNetEnqueued)
		n.tel.Observe(telemetry.HistNetQueueDepth, uint64(len(n.pending)-n.head))
	}
}

// Step delivers one queued datagram on the calling goroutine, in exact
// FIFO order. It reports false when the queue is empty.
func (n *Network) Step() bool { return n.Run(1) == 1 }

// Run pumps the queue until empty or maxSteps deliveries and reports
// how many it made.
func (n *Network) Run(maxSteps int) int {
	spanOn := telemetry.Enabled()
	steps := 0
	for steps < maxSteps && n.head < len(n.pending) {
		n.step(spanOn)
		steps++
	}
	return steps
}

// step delivers the queue head. The first delivery of a generation
// opens it over everything queued at that moment; the last closes it as
// one epoch, timed into a netsim-track span when spans are on.
func (n *Network) step(spanOn bool) {
	if n.genLeft == 0 {
		n.genLeft = n.Pending()
		n.genSize = n.genLeft
		if spanOn {
			n.genStart = telemetry.SpanNow()
		}
	}
	dg := n.pending[n.head]
	n.pending[n.head] = Datagram{}
	n.head++
	if n.head*2 >= len(n.pending) {
		// Compact: moving the live tail (no longer than what was
		// popped) to the front keeps a pop amortised O(1).
		live := copy(n.pending, n.pending[n.head:])
		clear(n.pending[n.head:])
		n.pending = n.pending[:live]
		n.head = 0
	}
	n.deliver(dg)
	n.genLeft--
	if n.genLeft > 0 {
		return
	}
	if spanOn {
		telemetry.RecordSpan(telemetry.Span{
			Track: telemetry.TrackNetsim, Scenario: "netsim", Stage: "epoch",
			Attempt: n.attempt, Start: n.genStart,
			Dur: telemetry.SpanNow() - n.genStart, Instr: uint64(n.genSize),
		})
	}
	n.epochs++
	if n.tel != nil {
		n.tel.Inc(telemetry.CtrNetEpochs)
		n.tel.Observe(telemetry.HistNetEpochBatch, uint64(n.genSize))
	}
}

// deliver routes one datagram: route, then the port map, then the
// handler, recycling the payload when the handler returns.
func (n *Network) deliver(dg Datagram) {
	host := n.route(dg.Dst.IP)
	if host == nil {
		n.drop(dg, "no route")
		return
	}
	i, ok := host.socket(dg.Dst.Port)
	if !ok {
		n.drop(dg, "port closed")
		return
	}
	sock := host.sockets[i]
	n.Delivered++
	if n.tel != nil {
		n.tel.Inc(telemetry.CtrNetDelivered)
	}
	if n.Verbose {
		n.Events = append(n.Events, "deliver "+dg.Src.String()+" -> "+dg.Dst.String()+
			" ("+strconv.Itoa(len(dg.Payload))+" bytes)")
	}
	if sock.handler != nil {
		sock.handler(dg)
		// The handler contract says payloads do not outlive the call.
		n.putBuf(dg.Payload)
	} else {
		// Handler-less sockets retain the datagram until Recv; those
		// buffers stay owned by the receiver and are never recycled.
		sock.queue = append(sock.queue, dg)
	}
}

// drop counts and logs an undeliverable datagram and recycles its
// payload.
func (n *Network) drop(dg Datagram, why string) {
	n.Dropped++
	if n.tel != nil {
		n.tel.Inc(telemetry.CtrNetDropped)
	}
	if n.Verbose {
		n.Events = append(n.Events, "drop "+dg.Src.String()+" -> "+dg.Dst.String()+
			" ("+strconv.Itoa(len(dg.Payload))+" bytes): "+why)
	}
	n.putBuf(dg.Payload)
}

// Pending returns the number of queued datagrams.
func (n *Network) Pending() int { return len(n.pending) - n.head }
