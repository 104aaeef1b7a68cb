// ZoneTrie: the resolver's zone as a compressed radix trie keyed by
// wire-format name bytes.
//
// The splice fast path (dnsserver.go) already holds the question's
// name exactly as it appears on the wire — length-prefixed labels plus
// a terminal zero. The historical map[string][4]byte zone forced that
// wire name through decode + intern just to build a lookup key; the
// trie walks the wire bytes directly, so a lookup is a pointer chase
// with zero conversions and zero allocations however many names the
// zone holds.
//
// Matching needs no name-end precomputation: every stored key ends in
// the terminal zero and valid plain names are prefix-free (a key's
// terminator can never sit where another key has a label length), so a
// stored key matching a byte prefix of the question section is exactly
// a whole-name match, and the walk simply stops there — trailing
// qtype/qclass bytes are never touched.
package dnsserver

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"connlab/internal/dns"
)

// znode is one trie node in the arena: first-child/next-sibling links,
// a one-byte branching label, and the compressed tail of the edge as an
// offset into the shared run storage. terminal nodes are leaves (keys
// are prefix-free) and carry the A record.
type znode struct {
	child   int32
	sibling int32
	run     int32
	runLen  int32
	label   byte
	leaf    bool
	ip      [4]byte
}

// ZoneTrie is a compressed trie from wire-format DNS names to IPv4
// addresses. The zero value is an empty zone ready for Add.
type ZoneTrie struct {
	nodes []znode
	runs  []byte
	size  int
	// keybuf is the reusable wire-encoding buffer for Add.
	keybuf []byte
}

// ErrBadWireName is AddWire's refusal of a key that is not one plain
// wire-format name.
var ErrBadWireName = errors.New("dnsserver: zone key is not a plain wire name")

// checkWireName reports whether key is exactly one plain wire name:
// labels of 1–63 bytes, each behind its length byte, ended by the
// terminal zero (with no bytes after it) within the 255-byte limit.
// These are the names a dotted name encodes to, and a set of them is
// prefix-free, which Lookup's early stop relies on.
func checkWireName(key []byte) error {
	for i := 0; i < len(key) && i < 255; {
		l := int(key[i])
		if l == 0 {
			if i+1 != len(key) {
				return fmt.Errorf("%w: %d bytes after the terminal zero", ErrBadWireName, len(key)-i-1)
			}
			return nil
		}
		if l > 63 {
			return fmt.Errorf("%w: label length byte %#x at %d", ErrBadWireName, l, i)
		}
		i += 1 + l
	}
	if len(key) > 255 {
		return fmt.Errorf("%w: longer than 255 bytes", ErrBadWireName)
	}
	return fmt.Errorf("%w: no terminal zero", ErrBadWireName)
}

// NewZoneTrie returns an empty zone.
func NewZoneTrie() *ZoneTrie { return &ZoneTrie{} }

// ZoneTrieFromMap builds a trie from a dotted-name zone map. Keys are
// inserted in sorted order so the arena layout is a pure function of
// the zone contents. A nil map yields an empty zone.
func ZoneTrieFromMap(m map[string][4]byte) (*ZoneTrie, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	t := NewZoneTrie()
	for _, name := range names {
		if err := t.Add(name, m[name]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Grow makes room for names more names of keyBytes wire bytes in all,
// so a zone built at a known size does not regrow its arenas as it
// fills. A name adds at most two nodes (a split edge and its leaf) and
// at most its own bytes of run.
func (t *ZoneTrie) Grow(names, keyBytes int) {
	t.nodes = slices.Grow(t.nodes, 2*names+1)
	t.runs = slices.Grow(t.runs, keyBytes)
}

// Len reports the number of names in the zone.
func (t *ZoneTrie) Len() int { return t.size }

// Add inserts (or overwrites) an A record under a dotted name, with the
// same label validation the wire encoder applies. Names whose labels
// contain literal dots are not representable — the same restriction the
// dotted map keys always had.
func (t *ZoneTrie) Add(name string, ip [4]byte) error {
	key, err := dns.AppendRawName(t.keybuf[:0], name)
	if err != nil {
		return err
	}
	t.keybuf = key
	return t.AddWire(key, ip)
}

// AddWire inserts (or overwrites) an A record under a name already in
// wire format — length-prefixed labels and the terminal zero, the bytes
// a question carries — so a caller that encodes the name for a query
// anyway keys the zone with the same bytes. A key that is not exactly
// one plain wire name is refused with ErrBadWireName. The trie copies
// what it keeps; key is free for reuse on return.
func (t *ZoneTrie) AddWire(key []byte, ip [4]byte) error {
	if err := checkWireName(key); err != nil {
		return err
	}
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, znode{child: -1, sibling: -1}) // root sentinel
	}
	cur := int32(0)
	i := 0
	for {
		// Find the child of cur branching on key[i].
		c := t.nodes[cur].child
		for c >= 0 && t.nodes[c].label != key[i] {
			c = t.nodes[c].sibling
		}
		if c < 0 {
			ni := t.newLeaf(key[i], key[i+1:], ip)
			t.nodes[ni].sibling = t.nodes[cur].child
			t.nodes[cur].child = ni
			t.size++
			return nil
		}
		i++
		nd := &t.nodes[c]
		run := t.runs[nd.run : nd.run+nd.runLen]
		j := 0
		for j < len(run) && run[j] == key[i] {
			j, i = j+1, i+1
		}
		if j < len(run) {
			// Mismatch inside the compressed edge: split the node. The
			// tail keeps the children and the record, pointing into the
			// same run storage; the head keeps the matched prefix.
			tail := int32(len(t.nodes))
			t.nodes = append(t.nodes, znode{
				child: nd.child, sibling: -1,
				run: nd.run + int32(j) + 1, runLen: nd.runLen - int32(j) - 1,
				label: run[j], leaf: nd.leaf, ip: nd.ip,
			})
			nd = &t.nodes[c] // re-resolve: append may have moved the arena
			nd.child, nd.runLen, nd.leaf, nd.ip = tail, int32(j), false, [4]byte{}
			ni := t.newLeaf(key[i], key[i+1:], ip)
			t.nodes[ni].sibling = tail
			t.nodes[c].child = ni
			t.size++
			return nil
		}
		if i == len(key) {
			// Whole key matched an existing name: overwrite, map-style.
			// (Prefix-freeness means this node is a leaf.)
			nd.leaf, nd.ip = true, ip
			return nil
		}
		cur = c
	}
}

// newLeaf appends a leaf node whose edge is label+rest, copying rest
// into the run arena.
func (t *ZoneTrie) newLeaf(label byte, rest []byte, ip [4]byte) int32 {
	off := int32(len(t.runs))
	t.runs = append(t.runs, rest...)
	t.nodes = append(t.nodes, znode{
		child: -1, sibling: -1,
		run: off, runLen: int32(len(rest)),
		label: label, leaf: true, ip: ip,
	})
	return int32(len(t.nodes) - 1)
}

// Lookup resolves a wire-format name sitting at the front of wire —
// typically the question section, qtype/qclass bytes still attached.
// It allocates nothing and never reads past the name's terminal zero.
func (t *ZoneTrie) Lookup(wire []byte) (ip [4]byte, ok bool) {
	if len(t.nodes) == 0 {
		return ip, false
	}
	c := t.nodes[0].child
	i := 0
	for c >= 0 {
		nd := &t.nodes[c]
		if i >= len(wire) || wire[i] != nd.label {
			c = nd.sibling
			continue
		}
		i++
		run := t.runs[nd.run : nd.run+nd.runLen]
		if len(wire)-i < len(run) {
			return ip, false
		}
		for j := 0; j < len(run); j++ {
			if wire[i+j] != run[j] {
				return ip, false
			}
		}
		i += len(run)
		if nd.leaf {
			return nd.ip, true
		}
		c = nd.child
	}
	return ip, false
}

// LookupName resolves a dotted name, encoding it into a stack buffer
// first — the allocation-free twin of the old map lookup for callers
// that hold a decoded string. Unencodable names (oversized or empty
// labels) are simply absent from the zone.
func (t *ZoneTrie) LookupName(name string) (ip [4]byte, ok bool) {
	var buf [257]byte
	w := buf[:0]
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	if name != "" {
		start := 0
		for i := 0; i <= len(name); i++ {
			if i < len(name) && name[i] != '.' {
				continue
			}
			l := i - start
			if l < 1 || l > 63 || len(w)+1+l+1 > len(buf) {
				return ip, false
			}
			w = append(w, byte(l))
			w = append(w, name[start:i]...)
			start = i + 1
		}
	}
	w = append(w, 0)
	return t.Lookup(w)
}
