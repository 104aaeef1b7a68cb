package campaign

import (
	"fmt"
	"strconv"
	"time"

	"connlab/internal/dns"
	"connlab/internal/dnsserver"
	"connlab/internal/netsim"
)

// E9 at population scale: ONE shared Pineapple world instead of one
// toy world per device. A single rogue AP out-shouts the home router
// for an entire station population; every station re-associates, takes
// a rogue DHCP lease, and phones home through the attacker's resolver.
// A sparse subset of stations are full victim devices — emulated
// Connman-analog daemons behind DNS proxies, one per campaign seed —
// and the rest are lightweight clients that self-clock their lookups
// and verify the answers, generating the "heavy traffic from millions
// of users" the roadmap's north star asks the simulator to serve.

// ScaleConfig parameterizes the population-scale Pineapple scenario.
type ScaleConfig struct {
	// Stations is the population size (light clients + victims).
	Stations int
	// Lookups is how many DNS lookups each light station performs
	// during the attack phase (the baseline phase always does one).
	Lookups int
	// VictimEvery makes every k-th station a full victim device
	// (0 disables victims entirely).
	VictimEvery int
	// MaxVictims caps the victim count; daemons are the expensive part
	// of the population. 0 means 8.
	MaxVictims int
	// Scenario selects the victims' architecture, exploit kind and
	// protection set. Label/Devices are ignored.
	Scenario Scenario
	// Verbose records the netsim event transcript on the report.
	Verbose bool
}

func (c *ScaleConfig) normalize() {
	if c.Stations < 1 {
		c.Stations = 1
	}
	if c.Lookups < 1 {
		c.Lookups = 1
	}
	if c.MaxVictims == 0 {
		c.MaxVictims = 8
	}
}

// ScaleReport aggregates one population-scale run. Every field except
// WallNs is a deterministic function of the configuration and seeds —
// independent of wall-clock — and Transcript renders exactly those
// fields.
type ScaleReport struct {
	Stations int
	Victims  int
	Lookups  int

	// Baseline phase: every station resolves its own name through the
	// legitimate resolver.
	BaselineResolved int
	BaselineOK       int
	BaselineTainted  int

	// Attack phase: after the rogue AP wins the re-association, the
	// same traffic lands on the attacker's MITM resolver.
	Hijacked      int
	AttackOK      int
	AttackTainted int

	// Victim verdicts after the exploit response went through each
	// daemon's emulated parser.
	Shells   int
	Crashes  int
	NoEffect int

	// Shared-world totals.
	Delivered int
	Dropped   int
	Epochs    int
	Steps     int

	// WallNs is the measured wall time of the whole scenario —
	// host-dependent, excluded from Transcript.
	WallNs int64

	// Events is the netsim transcript (Verbose runs only).
	Events []string
}

// Transcript renders the deterministic portion of the report; runs of
// the same configuration must produce identical transcripts.
func (r *ScaleReport) Transcript() string {
	return fmt.Sprintf(
		"pineapple-scale stations=%d victims=%d lookups=%d\n"+
			"baseline: resolved=%d ok=%d tainted=%d\n"+
			"attack: hijacked=%d ok=%d tainted=%d\n"+
			"victims: shells=%d crashes=%d noeffect=%d\n"+
			"net: delivered=%d dropped=%d epochs=%d steps=%d\n",
		r.Stations, r.Victims, r.Lookups,
		r.BaselineResolved, r.BaselineOK, r.BaselineTainted,
		r.Hijacked, r.AttackOK, r.AttackTainted,
		r.Shells, r.Crashes, r.NoEffect,
		r.Delivered, r.Dropped, r.Epochs, r.Steps)
}

// lightStation is a population client: a prebuilt query, an expected
// answer, and a handler that validates each reply with a byte-level
// check (no decoding, no allocation) and self-clocks the next lookup —
// so one Run call carries the whole population through its lookups in
// lock-stepped generations.
type lightStation struct {
	host      *netsim.Host
	sock      *netsim.UDPSocket
	query     []byte
	expect    [4]byte
	remaining int
	ok        int
	tainted   int
}

func (st *lightStation) send() {
	st.remaining--
	st.sock.SendTo(netsim.Addr{IP: st.host.DNS, Port: dnsserver.DNSPort}, st.query)
}

// onReply validates the A record: the splice resolver and the MITM
// both put the answer's RDATA last, so a legitimate 4-byte A answer
// ends in the expected address while the exploit's oversized record
// cannot.
func (st *lightStation) onReply(dg netsim.Datagram) {
	p := dg.Payload
	if len(p) >= dns.HeaderSize+4 && (p[6] != 0 || p[7] != 0) &&
		p[len(p)-4] == st.expect[0] && p[len(p)-3] == st.expect[1] &&
		p[len(p)-2] == st.expect[2] && p[len(p)-1] == st.expect[3] {
		st.ok++
	} else {
		st.tainted++
	}
	if st.remaining > 0 {
		st.send()
	}
}

// scaleVictim is a full device in the population, phoning home to name.
type scaleVictim struct {
	*worldDevice
	name string
}

// stationNames returns station i's host name, fmt's "st%06d" without
// fmt, and the zone name it phones home to. The host name is a prefix of
// the zone name, so the pair costs one allocation.
func stationNames(i int) (host, name string) {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	var buf [64]byte
	b := append(buf[:0], "st000000"[:2+6-min(len(d), 6)]...)
	b = append(b, d...)
	n := len(b)
	name = string(append(b, ".iot-vendor.example"...))
	return name[:n], name
}

// queryFlags is the header flag word of a recursive query (RD), as
// dns.NewQuery encodes it.
const queryFlags = 1 << 8

// appendStationQuery appends station i's A query for name to dst: the
// bytes dns.NewQuery(uint16(i), name, dns.TypeA) encodes, with the
// name's wire form 4 bytes from the end.
func appendStationQuery(dst []byte, i int, name string) ([]byte, error) {
	dst = dns.AppendHeader(dst, uint16(i), queryFlags, 1, 0, 0, 0)
	dst, err := dns.AppendRawName(dst, name)
	if err != nil {
		return nil, err
	}
	return append(dst, 0, byte(dns.TypeA), 0, byte(dns.ClassIN)), nil
}

// stationQuerySize is the length of station i's A query.
func stationQuerySize(i int) int {
	// Header, the name's labels with their length bytes and the terminal
	// zero, then type and class.
	_, name := stationNames(i)
	return dns.HeaderSize + len(name) + 2 + 4
}

// stationIP is the legitimate answer for station i.
func stationIP(i int) [4]byte {
	return [4]byte{20, byte(i >> 16), byte(i >> 8), byte(i)}
}

// RunPineappleScale runs the population-scale Pineapple scenario on
// the engine's caches: one recon, one payload and one unit build feed
// every victim in the world, exactly like fleet devices.
func (e *Engine) RunPineappleScale(cfg ScaleConfig) (*ScaleReport, error) {
	cfg.normalize()
	start := time.Now()
	s := cfg.Scenario
	s.Pineapple = true

	ex, err := e.Payload(s)
	if err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}

	// The shared world serves the whole population; its epoch spans are
	// tagged with the engine's root seed rather than any one device.
	world, err := newRogueWorld(scalePools, 50, uint64(e.cfg.RootSeed), cfg.Verbose)
	if err != nil {
		return nil, err
	}

	// The world's idle payload buffers go to the next world built in
	// this process (a benchmark's next op); nothing outlives the run.
	defer world.Release()
	// Its host table and zone are sized for the population up front.
	world.Grow(cfg.Stations)
	world.zone.Grow(cfg.Stations, cfg.Stations*(stationQuerySize(cfg.Stations-1)-dns.HeaderSize-4))

	// Population. Every VictimEvery-th station (capped) is a full
	// device with its own campaign seed; the rest are light clients.
	// Each station's name is encoded once: its wire form keys the zone
	// and, for a light station, is the question of its prebuilt query.
	// The queries share one arena (a grown arena leaves the earlier
	// queries in the old one, where they stay valid).
	rep := &ScaleReport{Stations: cfg.Stations, Lookups: cfg.Lookups}
	lights := make([]*lightStation, 0, cfg.Stations)
	var victims []*scaleVictim
	hosts := make([]*netsim.Host, cfg.Stations)
	queries := make([]byte, 0, cfg.Stations*stationQuerySize(cfg.Stations-1))
	for i := range hosts {
		hostName, name := stationNames(i)
		start := len(queries)
		if queries, err = appendStationQuery(queries, i, name); err != nil {
			return nil, err
		}
		if err := world.zone.AddWire(queries[start+dns.HeaderSize:len(queries)-4], stationIP(i)); err != nil {
			return nil, err
		}
		if cfg.VictimEvery > 0 && i%cfg.VictimEvery == 0 && len(victims) < cfg.MaxVictims {
			// A victim queries through its own proxy; it needs no query.
			queries = queries[:start]
			// Each victim is tagged with its device seed, like a fleet
			// device, so its kernel accounting names the attempt.
			d, err := e.device(s, e.deviceSeed(s, 0, len(victims)), false)
			if err != nil {
				return nil, err
			}
			defer e.releaseDaemon(d)
			dev, err := world.attach(hostName, d)
			if err != nil {
				return nil, err
			}
			hosts[i] = dev.host
			victims = append(victims, &scaleVictim{worldDevice: dev, name: name})
			continue
		}
		h, err := world.AddHost(hostName, netsim.IP{})
		if err != nil {
			return nil, err
		}
		hosts[i] = h
		st := &lightStation{host: h, expect: stationIP(i), query: queries[start:len(queries):len(queries)]}
		if st.sock, err = h.BindEphemeral(st.onReply); err != nil {
			return nil, err
		}
		lights = append(lights, st)
	}
	rep.Victims = len(victims)

	budget := cfg.Stations*(cfg.Lookups+2)*8 + 4096

	// Phase 1 — baseline: everyone joins the home router and resolves
	// through the legitimate resolver.
	assocAll := func() error {
		for _, h := range hosts {
			if _, err := h.Station(trustedSSID).Associate(); err != nil {
				return fmt.Errorf("associate %s: %w", h.Name, err)
			}
		}
		return nil
	}
	if err := assocAll(); err != nil {
		return nil, err
	}
	for _, st := range lights {
		st.remaining = 1
		st.send()
	}
	for _, v := range victims {
		if err := v.lookup(v.name); err != nil {
			return nil, err
		}
	}
	rep.Steps += world.Run(budget)
	rep.BaselineResolved = world.resolver.Queries
	for _, st := range lights {
		rep.BaselineOK += st.ok
		rep.BaselineTainted += st.tainted
		st.ok, st.tainted = 0, 0
	}

	// Phase 2 — the Pineapple appears: stronger signal, same SSID. The
	// whole population re-associates and the rogue DHCP points DNS at
	// the attacker.
	if err := world.arm(ex, 95); err != nil {
		return nil, err
	}
	if err := assocAll(); err != nil {
		return nil, err
	}

	// Phase 3 — attack traffic: the same phone-home lookups now land
	// on the MITM, which answers every one with the exploit.
	for _, st := range lights {
		st.remaining = cfg.Lookups
		st.send()
	}
	for _, v := range victims {
		if err := v.lookup(v.name); err != nil {
			return nil, err
		}
	}
	rep.Steps += world.Run(budget)
	rep.Hijacked = world.mitm.Queries
	for _, st := range lights {
		rep.AttackOK += st.ok
		rep.AttackTainted += st.tainted
	}
	for _, v := range victims {
		// The transcript keeps three buckets: a mitigation that stopped
		// the exploit (BLOCKED) counts with the crashes.
		switch o, _ := Classify(v.proxy.Daemon.LastResult()); o {
		case OutcomeShell:
			rep.Shells++
		case OutcomeCrash, OutcomeBlocked:
			rep.Crashes++
		default:
			rep.NoEffect++
		}
	}

	rep.Delivered = world.Delivered
	rep.Dropped = world.Dropped
	rep.Epochs = world.Epochs()
	rep.WallNs = int64(time.Since(start))
	if cfg.Verbose {
		rep.Events = world.Events
	}
	return rep, nil
}
