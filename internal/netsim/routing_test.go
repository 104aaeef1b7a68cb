package netsim

import (
	"errors"
	"fmt"
	"testing"
)

// routeModel is the oracle FuzzRouting holds the lease tables to: one
// map from address to host, updated exactly as AddHost and Associate
// updated it before leases were routed by AP.
type routeModel struct {
	byIP map[IP]string
	ip   map[string]IP
	ap   map[string]int // index into aps; -1 while unassociated
	next []uint32       // each AP's lease counter
}

// associate is Associate over the model: the index of the AP it joins
// (-1 for none) and the error Associate must return.
func (m *routeModel) associate(aps []*AccessPoint, host string) (int, error) {
	best := -1
	for i, ap := range aps {
		if ap.SSID == "net" && (best < 0 || ap.Signal > aps[best].Signal ||
			ap.Signal == aps[best].Signal && ap.Name < aps[best].Name) {
			best = i
		}
	}
	if best < 0 {
		return -1, ErrNoAP
	}
	if m.ap[host] == best {
		return best, nil
	}
	lease := aps[best].PoolBase
	v := uint32(lease[1])<<16 | uint32(lease[2])<<8 | uint32(lease[3])
	v += m.next[best] + 1
	lease[1], lease[2], lease[3] = byte(v>>16), byte(v>>8), byte(v)
	if owner, taken := m.byIP[lease]; taken && owner != host {
		return -1, fmt.Errorf("netsim: dhcp pool collision at %s", lease)
	}
	m.next[best]++
	if old := m.ip[host]; !old.IsZero() {
		delete(m.byIP, old)
	}
	m.ip[host], m.ap[host] = lease, best
	m.byIP[lease] = host
	return best, nil
}

// fuzzIP maps a byte onto a small address space that overlaps the
// fuzzed pools: 10.0.0.0–119, 10.0.0.250–255 and the same in 10.0.1.
func fuzzIP(b byte) IP {
	last := b & 0x7F
	if last >= 120 {
		last += 130
	}
	return IP{10, 0, b >> 7, last}
}

// fuzzPools are pool bases that overlap each other and the static
// addresses, one of them carrying into the third octet after 5 leases.
var fuzzPools = []IP{{10, 0, 0, 0}, {10, 0, 0, 3}, {10, 0, 0, 250}, {10, 0, 1, 0}}

// FuzzRouting drives static hosts, DHCP hosts, association and
// re-association across 2–3 APs with overlapping pools, plus sends to
// live, stale and unknown addresses, against routeModel. Every delivery
// target or drop reason, the Delivered/Dropped counters, every
// Associate result and every host address must agree with the model.
func FuzzRouting(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 2, 0, 2, 1, 4, 0, 4, 1, 3, 1, 4, 2, 0, 2, 1, 5, 0})
	f.Add([]byte{1, 0, 3, 1, 1, 2, 0, 0, 1, 2, 1, 3, 0, 4, 2, 1, 2, 0, 4, 1, 5, 3, 6, 2})
	f.Add([]byte{2, 1, 1, 0, 251, 1, 2, 0, 2, 1, 2, 2, 3, 1, 4, 2, 0, 2, 2, 4, 0, 4, 1, 5, 0, 5, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		pos := 0
		next := func() byte {
			if pos >= len(ops) {
				return 0
			}
			pos++
			return ops[pos-1]
		}
		n := New()
		n.Verbose = true
		m := &routeModel{byIP: map[IP]string{}, ip: map[string]IP{}, ap: map[string]int{}}
		var aps []*AccessPoint
		addAP := func() {
			i := len(aps)
			b := next()
			aps = append(aps, n.AddAP(&AccessPoint{
				Name: fmt.Sprintf("ap%d", i), SSID: []string{"net", "net", "net", "other"}[b>>6],
				Signal:   int(b>>4&3) * 20,
				PoolBase: fuzzPools[b&3], Gateway: IP{10, 9, 0, byte(i)}, DNS: IP{10, 8, 0, byte(i)},
			}))
			m.next = append(m.next, 0)
		}
		for k := 2 + int(next()&1); k > 0; k-- {
			addAP()
		}
		probeIP := IP{192, 168, 77, 1}
		probe, err := n.AddHost("probe", probeIP)
		if err != nil {
			t.Fatal(err)
		}
		m.byIP[probeIP], m.ip["probe"], m.ap["probe"] = "probe", probeIP, -1
		tx, err := probe.Bind(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var hosts []*Host
		var seen []IP // every address ever held: the stale targets
		got, added := "", 0
		addHost := func(ip IP) {
			name := fmt.Sprintf("h%d", added)
			added++
			_, modelTaken := m.byIP[ip]
			h, err := n.AddHost(name, ip)
			if modelTaken != (err != nil) {
				t.Fatalf("AddHost(%s): err %v, model taken %v", ip, err, modelTaken)
			}
			if err != nil {
				return
			}
			if _, err := h.Bind(7, func(Datagram) { got = h.Name }); err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, h)
			m.ip[name], m.ap[name] = ip, -1
			if !ip.IsZero() {
				m.byIP[ip] = name
				seen = append(seen, ip)
			}
		}
		send := func(dst Addr) {
			delivered, dropped := n.Delivered, n.Dropped
			got = ""
			tx.SendTo(dst, []byte{1})
			if n.Run(1) != 1 {
				t.Fatal("send not delivered or dropped")
			}
			prefix := "deliver " + Addr{IP: probeIP, Port: 1}.String() + " -> " + dst.String() + " (1 bytes)"
			want, wantEvent := "", prefix
			switch owner, ok := m.byIP[dst.IP]; {
			case !ok:
				wantEvent = "drop" + prefix[len("deliver"):] + ": no route"
			case dst.Port != 7 || owner == "probe":
				wantEvent = "drop" + prefix[len("deliver"):] + ": port closed"
			default:
				want = owner
			}
			if got != want {
				t.Fatalf("send to %s reached %q, model says %q", dst, got, want)
			}
			if ev := n.Events[len(n.Events)-1]; ev != wantEvent {
				t.Fatalf("send to %s: event %q, model says %q", dst, ev, wantEvent)
			}
			d := 0
			if want != "" {
				d = 1
			}
			if n.Delivered != delivered+d || n.Dropped != dropped+1-d {
				t.Fatalf("send to %s: counters %d/%d after %d/%d", dst, n.Delivered, n.Dropped, delivered, dropped)
			}
		}
		for pos < len(ops) {
			switch op := next(); op % 7 {
			case 0:
				addHost(fuzzIP(next()))
			case 1:
				addHost(IP{})
			case 2:
				if len(hosts) == 0 {
					continue
				}
				h := hosts[int(next())%len(hosts)]
				wantAP, wantErr := m.associate(aps, h.Name)
				ap, err := h.Station("net").Associate()
				switch {
				case (err == nil) != (wantErr == nil):
					t.Fatalf("Associate(%s) = %v, model says %v", h.Name, err, wantErr)
				case errors.Is(wantErr, ErrNoAP) && !errors.Is(err, ErrNoAP):
					t.Fatalf("Associate(%s) = %v, model says %v", h.Name, err, wantErr)
				case err != nil && err.Error() != wantErr.Error():
					t.Fatalf("Associate(%s) = %v, model says %v", h.Name, err, wantErr)
				case err == nil && ap != aps[wantAP]:
					t.Fatalf("Associate(%s) joined %s, model says %s", h.Name, ap.Name, aps[wantAP].Name)
				}
				if h.IP != m.ip[h.Name] {
					t.Fatalf("%s at %s, model says %s", h.Name, h.IP, m.ip[h.Name])
				}
				if err == nil {
					seen = append(seen, h.IP)
				}
			case 3:
				b := next()
				aps[int(b)%len(aps)].Signal = int(next()%5) * 20
			case 4:
				if len(hosts) == 0 {
					continue
				}
				b := next()
				send(Addr{IP: hosts[int(b>>1)%len(hosts)].IP, Port: 7 + 2*uint16(b&1)})
			case 5:
				b := next()
				if b&1 == 0 && len(seen) > 0 {
					send(Addr{IP: seen[int(b>>1)%len(seen)], Port: 7})
				} else {
					send(Addr{IP: fuzzIP(next()), Port: 7})
				}
			case 6:
				if len(aps) < 3 {
					addAP()
				}
			}
		}
		if n.Pending() != 0 {
			t.Fatalf("%d datagrams left queued", n.Pending())
		}
	})
}
