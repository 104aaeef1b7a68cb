package campaign

import (
	"fmt"

	"connlab/internal/dnsserver"
	"connlab/internal/exploit"
	"connlab/internal/netsim"
	"connlab/internal/victim"
)

// The §III-D rogue-AP world (Fig. 1), built here once for every runner:
// a home router and the legitimate resolver behind it, and — once armed
// — a Pineapple that clones the trusted SSID at a stronger signal, hands
// out the attacker's resolver over DHCP, and answers every lookup with
// the exploit. A fleet device gets a world of its own (devices stay
// independent and run on any worker), the lab's E9 run adds a baseline
// phase before the Pineapple appears, and the population run puts every
// station in one shared world. Whatever the world, the device's verdict
// is Classify of its daemon's last run.

// trustedSSID is the network every device is configured to join.
const trustedSSID = "HomeIoT"

// phoneHomeName is the lookup a single device makes through its proxy.
const phoneHomeName = "time.iot-vendor.example"

// The world's fixed addresses: the legitimate resolver, the home
// router's gateway, and the Pineapple, which is gateway and resolver at
// once.
var (
	resolverIP  = netsim.IP{8, 8, 8, 8}
	legitGW     = netsim.IP{192, 168, 1, 1}
	pineappleIP = netsim.IP{172, 16, 42, 1}
)

// leasePools are the DHCP pools of the home router and the Pineapple.
type leasePools struct{ legit, rogue netsim.IP }

var (
	// devicePools serve a world with one device in it.
	devicePools = leasePools{legit: netsim.IP{192, 168, 1, 100}, rogue: netsim.IP{172, 16, 42, 100}}
	// scalePools start on an octet boundary: the lease counter must
	// carry across octets for populations past a few hundred stations.
	scalePools = leasePools{legit: netsim.IP{10, 1, 0, 0}, rogue: netsim.IP{172, 17, 0, 0}}
)

// rogueWorld is one §III-D world on the simulated network.
type rogueWorld struct {
	*netsim.Network
	// zone is the legitimate resolver's zone; callers may add names.
	zone     *dnsserver.ZoneTrie
	resolver *dnsserver.Resolver
	// mitm is the attacker's resolver, nil until arm.
	mitm      *dnsserver.MITM
	roguePool netsim.IP
}

// newRogueWorld builds the home side of a world: the home router at
// legitSignal leasing from pools.legit, and the legitimate resolver
// serving the vendor zone. attempt tags the world's epoch spans; verbose
// records the network event log.
func newRogueWorld(pools leasePools, legitSignal int, attempt uint64, verbose bool) (*rogueWorld, error) {
	w := &rogueWorld{Network: netsim.New(), zone: dnsserver.NewZoneTrie(), roguePool: pools.rogue}
	w.Verbose = verbose
	w.SetAttempt(attempt)
	w.addAP("home-router", legitSignal, pools.legit, legitGW, resolverIP)
	if err := w.zone.Add(phoneHomeName, [4]byte{93, 184, 216, 34}); err != nil {
		return nil, err
	}
	if err := w.zone.Add("update.iot-vendor.example", [4]byte{93, 184, 216, 35}); err != nil {
		return nil, err
	}
	host, err := w.AddHost("resolver", resolverIP)
	if err != nil {
		return nil, err
	}
	if w.resolver, err = dnsserver.RunResolverTrie(host, w.zone); err != nil {
		return nil, err
	}
	return w, nil
}

// arm deploys the Pineapple: the MITM resolver answering every query
// with ex's crafted response, and the rogue AP cloning the trusted SSID
// at rogueSignal. Stations move to it on their next association.
func (w *rogueWorld) arm(ex *exploit.Exploit, rogueSignal int) error {
	host, err := w.AddHost("pineapple", pineappleIP)
	if err != nil {
		return err
	}
	if w.mitm, err = dnsserver.RunMITMWire(host, ex.AppendAnswer); err != nil {
		return err
	}
	w.addAP("pineapple", rogueSignal, w.roguePool, pineappleIP, pineappleIP)
	return nil
}

// addAP broadcasts the trusted SSID from a new access point whose DHCP
// leases from pool and hands out gateway and dns.
func (w *rogueWorld) addAP(name string, signal int, pool, gateway, dns netsim.IP) {
	w.AddAP(&netsim.AccessPoint{
		Name: name, SSID: trustedSSID, Signal: signal,
		PoolBase: pool, Gateway: gateway, DNS: dns,
	})
}

// worldDevice is a victim in a world: a DHCP-configured host running the
// daemon behind the DNS proxy, and a stub client on the same host.
type worldDevice struct {
	host   *netsim.Host
	proxy  *dnsserver.Proxy
	client *dnsserver.Client
}

// attach adds a victim host named name running d.
func (w *rogueWorld) attach(name string, d *victim.Daemon) (*worldDevice, error) {
	host, err := w.AddHost(name, netsim.IP{})
	if err != nil {
		return nil, err
	}
	proxy, err := dnsserver.RunProxy(host, d)
	if err != nil {
		return nil, err
	}
	client, err := dnsserver.NewClient(host)
	if err != nil {
		return nil, err
	}
	return &worldDevice{host: host, proxy: proxy, client: client}, nil
}

// associate scans for the trusted SSID and joins its strongest AP.
func (v *worldDevice) associate() (*netsim.AccessPoint, error) {
	return v.host.Station(trustedSSID).Associate()
}

// lookup sends a query for name to the device's own proxy.
func (v *worldDevice) lookup(name string) error {
	_, err := v.client.Lookup(netsim.Addr{IP: v.host.IP, Port: dnsserver.DNSPort}, name)
	return err
}

// PineappleReport is what the network saw in one device's rogue-AP run,
// plus the device's verdict.
type PineappleReport struct {
	// BaselineWorked reports that the victim proxied a lookup through the
	// legitimate resolver before the attack.
	BaselineWorked bool
	// Reassociated reports that the victim switched to the rogue AP.
	Reassociated bool
	// VictimDNS is the resolver the victim ended up using.
	VictimDNS netsim.IP
	// Hijacked counts lookups answered by the MITM server.
	Hijacked int
	// Outcome and Detail are Classify of the daemon's last run.
	Outcome Outcome
	Detail  string
	// Events is the network-level log (recorded runs only).
	Events []string
}

// rogueRun is one device's pass through its own world.
type rogueRun struct {
	legitSignal, rogueSignal int
	// lookups is how many phone-home lookups the device makes once the
	// Pineapple is up; it stops early once the daemon is dead.
	lookups int
	// baseline joins the home router and resolves through the
	// legitimate resolver before the Pineapple appears, and records the
	// network event log.
	baseline bool
}

// fleetRun is a campaign device's delivery: the Pineapple is already up
// when the device first associates, and one lookup carries the exploit.
var fleetRun = rogueRun{legitSignal: 50, rogueSignal: 95, lookups: 1}

// deliver drives d through the kill chain in a fresh world: it joins the
// strongest AP carrying the trusted SSID, resolves through the resolver
// that AP's DHCP hands out, and — on the rogue AP — receives the exploit
// as the answer. attempt tags the world's epoch spans. The report leaves
// the verdict to the caller.
func (run rogueRun) deliver(d *victim.Daemon, ex *exploit.Exploit, attempt uint64) (*PineappleReport, error) {
	rep := &PineappleReport{}
	w, err := newRogueWorld(devicePools, run.legitSignal, attempt, run.baseline)
	if err != nil {
		return nil, err
	}
	defer w.Release()
	dev, err := w.attach("iot-device", d)
	if err != nil {
		return nil, err
	}
	phoneHome := func() error {
		if err := dev.lookup(phoneHomeName); err != nil {
			return err
		}
		w.Run(64)
		return nil
	}
	if run.baseline {
		if _, err := dev.associate(); err != nil {
			return nil, fmt.Errorf("initial association: %w", err)
		}
		if err := phoneHome(); err != nil {
			return nil, err
		}
		rep.BaselineWorked = len(dev.client.Replies) == 1 && dev.proxy.Forwarded == 1
	}
	if err := w.arm(ex, run.rogueSignal); err != nil {
		return nil, err
	}
	// The device rescans (e.g. periodic roaming) and latches onto the
	// stronger clone.
	ap, err := dev.associate()
	if err != nil {
		return nil, fmt.Errorf("associate: %w", err)
	}
	rep.Reassociated = ap.Name == "pineapple"
	rep.VictimDNS = dev.host.DNS
	for i := 0; i < run.lookups && !d.Crashed(); i++ {
		if err := phoneHome(); err != nil {
			return nil, err
		}
	}
	rep.Hijacked = w.mitm.Queries
	rep.Events = w.Events
	return rep, nil
}

// RunPineapple runs the §III-D kill chain (Fig. 1) against the device of
// single-device scenario s, with the baseline phase the lab's E9 report
// shows:
//
//  1. the device joins its trusted SSID at the home router (legitSignal)
//     and resolves through the DHCP-assigned legitimate resolver;
//  2. the Pineapple clones the SSID at rogueSignal and the device
//     re-associates, receiving the attacker's resolver via DHCP;
//  3. up to lookups further lookups are answered by the MITM with the
//     exploit.
//
// The payload comes from the engine's cache and the daemon from its
// pool, as for any campaign device; the network event log is recorded.
// A payload that cannot be built is the NO-PAYLOAD verdict, as it is for
// a campaign device: the report carries the build error as its Detail
// and no world is built.
func (e *Engine) RunPineapple(s Scenario, legitSignal, rogueSignal, lookups int) (*PineappleReport, error) {
	tgt, err := e.recon(s)
	if err != nil {
		return nil, err
	}
	ex, err := e.payload(s, tgt)
	if err != nil {
		return &PineappleReport{Outcome: OutcomeBuildFail, Detail: err.Error()}, nil
	}
	seed := e.deviceSeed(s, 0, 0)
	d, err := e.device(s, seed, false)
	if err != nil {
		return nil, err
	}
	defer e.releaseDaemon(d)
	run := rogueRun{legitSignal: legitSignal, rogueSignal: rogueSignal, lookups: lookups, baseline: true}
	rep, err := run.deliver(d, ex, uint64(seed))
	if err != nil {
		return nil, err
	}
	rep.Outcome, rep.Detail = Classify(d.LastResult())
	return rep, nil
}
