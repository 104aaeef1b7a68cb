package core

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/dnsserver"
	"connlab/internal/exploit"
	"connlab/internal/isa"
	"connlab/internal/netsim"
)

// PineappleConfig parameterizes the §III-D remote scenario.
type PineappleConfig struct {
	Arch       isa.Arch
	Kind       exploit.Kind
	Protection Protection
	// LegitSignal and RogueSignal set the APs' relative strength; the
	// attack only works while the rogue AP is louder.
	LegitSignal, RogueSignal int
	// Lookups is how many client lookups to drive after association.
	Lookups int
}

// PineappleReport is the outcome of one remote run.
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
	// Outcome classifies what the exploit achieved on the device.
	Outcome Outcome
	Detail  string
	// Events is the network-level log.
	Events []string
}

// Scenario SSIDs and addresses.
const (
	trustedSSID = "HomeIoT"
	legitDNSPos = "8.8.8.8"
)

var (
	resolverIP  = netsim.IP{8, 8, 8, 8}
	legitGW     = netsim.IP{192, 168, 1, 1}
	legitPool   = netsim.IP{192, 168, 1, 100}
	pineappleIP = netsim.IP{172, 16, 42, 1}
	roguePool   = netsim.IP{172, 16, 42, 100}
)

// PineappleScaleConfig parameterizes the population-scale variant of
// the remote scenario: one shared world serving an entire
// station fleet instead of one toy world per device.
type PineappleScaleConfig struct {
	Arch       isa.Arch
	Kind       exploit.Kind
	Protection Protection
	// Stations is the population size.
	Stations int
	// Lookups is the per-station attack-phase lookup count.
	Lookups int
	// VictimEvery makes every k-th station a full victim device
	// (0 = no victims); MaxVictims caps them (0 = 8).
	VictimEvery, MaxVictims int
	// Verbose records the netsim event transcript.
	Verbose bool
}

// RunPineappleScale runs the §III-D scenario against a whole station
// population in one shared world (see campaign.RunPineappleScale).
func (l *Lab) RunPineappleScale(cfg PineappleScaleConfig) (*campaign.ScaleReport, error) {
	return l.engine().RunPineappleScale(campaign.ScaleConfig{
		Stations:    cfg.Stations,
		Lookups:     cfg.Lookups,
		VictimEvery: cfg.VictimEvery,
		MaxVictims:  cfg.MaxVictims,
		Scenario:    l.scenario(cfg.Arch, cfg.Kind, cfg.Protection),
		Verbose:     cfg.Verbose,
	})
}

// RunPineapple reproduces the Wi-Fi Pineapple man-in-the-middle attack
// (§III-D, Fig. 1):
//
//  1. the IoT victim associates to its trusted SSID and resolves names
//     through the legitimate DHCP-assigned resolver (baseline);
//  2. the Pineapple broadcasts the same SSID at a stronger signal and the
//     victim re-associates, receiving the attacker's resolver via DHCP;
//  3. the victim's next DNS lookups are answered by the MITM server with
//     the exploit payload, and the device falls.
//
// The only configuration on the victim is "utilize DHCP and automatic DNS
// server via DHCP", as in the paper.
func (l *Lab) RunPineapple(cfg PineappleConfig) (*PineappleReport, error) {
	if cfg.Lookups == 0 {
		cfg.Lookups = 2
	}
	if cfg.LegitSignal == 0 {
		cfg.LegitSignal = 50
	}
	if cfg.RogueSignal == 0 {
		cfg.RogueSignal = 90
	}
	rep := &PineappleReport{}

	net := netsim.New()
	net.Verbose = true

	// Legitimate infrastructure.
	resolverHost, err := net.AddHost("resolver", resolverIP)
	if err != nil {
		return nil, err
	}
	if _, err := dnsserver.RunResolver(resolverHost, map[string][4]byte{
		"time.iot-vendor.example":   {93, 184, 216, 34},
		"update.iot-vendor.example": {93, 184, 216, 35},
	}); err != nil {
		return nil, err
	}
	net.AddAP(&netsim.AccessPoint{
		Name: "home-router", SSID: trustedSSID, Signal: cfg.LegitSignal,
		PoolBase: legitPool, Gateway: legitGW, DNS: resolverIP,
	})

	// The IoT device: victim daemon + DNS proxy + stub client.
	deviceHost, err := net.AddHost("iot-device", netsim.IP{})
	if err != nil {
		return nil, err
	}
	daemon, err := l.newTargetDaemon(cfg.Arch, cfg.Protection)
	if err != nil {
		return nil, err
	}
	proxy, err := dnsserver.RunProxy(deviceHost, daemon)
	if err != nil {
		return nil, err
	}
	client, err := dnsserver.NewClient(deviceHost)
	if err != nil {
		return nil, err
	}
	station := deviceHost.Station(trustedSSID)
	if _, err := station.Associate(); err != nil {
		return nil, fmt.Errorf("initial association: %w", err)
	}

	// Baseline: a lookup through the legitimate chain.
	lookup := func() error {
		_, err := client.Lookup(netsim.Addr{IP: deviceHost.IP, Port: dnsserver.DNSPort},
			"time.iot-vendor.example")
		if err != nil {
			return err
		}
		net.Run(64)
		return nil
	}
	if err := lookup(); err != nil {
		return nil, err
	}
	rep.BaselineWorked = len(client.Replies) == 1 && proxy.Forwarded == 1

	// Attacker-side: recon in the controlled environment, then deploy the
	// Pineapple.
	tgt, err := l.Recon(cfg.Arch, cfg.Protection)
	if err != nil {
		return nil, err
	}
	ex, err := exploit.Build(tgt, cfg.Kind)
	if err != nil {
		return nil, err
	}
	pineHost, err := net.AddHost("pineapple", pineappleIP)
	if err != nil {
		return nil, err
	}
	mitm, err := dnsserver.RunMITMWire(pineHost, ex.AppendResponse)
	if err != nil {
		return nil, err
	}
	net.AddAP(&netsim.AccessPoint{
		Name: "pineapple", SSID: trustedSSID, Signal: cfg.RogueSignal,
		PoolBase: roguePool, Gateway: pineappleIP, DNS: pineappleIP,
	})

	// The device rescans (e.g. periodic roaming) and latches onto the
	// stronger clone.
	ap, err := station.Associate()
	if err != nil {
		return nil, fmt.Errorf("re-association: %w", err)
	}
	rep.Reassociated = ap.Name == "pineapple"
	rep.VictimDNS = deviceHost.DNS

	// Device traffic resumes; the MITM answers with the exploit.
	for i := 0; i < cfg.Lookups && !daemon.Crashed(); i++ {
		if err := lookup(); err != nil {
			return nil, err
		}
	}
	rep.Hijacked = mitm.Queries
	rep.Outcome, rep.Detail = Classify(daemon.LastResult())
	rep.Events = net.Events
	return rep, nil
}
