// Package route implements the static routing tables that VRIs interpret
// (Section 3.7): a longest-prefix-match table mapping destination prefixes to
// output interfaces and next hops, initialized from "map files" that carry a
// VR's static routes.
package route

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lvrm/internal/packet"
)

// Entry is one route: destination prefix -> output interface (+ next hop).
type Entry struct {
	Prefix  packet.IP
	Bits    int
	OutIf   int
	NextHop packet.IP // 0 means directly connected
}

// ErrNoRoute is returned by Lookup when no prefix covers the destination.
var ErrNoRoute = errors.New("route: no route to host")

// Table is a longest-prefix-match IPv4 routing table: a mutable handle on
// an immutable Trie value, the repository's one multibit trie. Insert and
// Delete swap in the trie the change produces, copying the nodes on the
// path down to the changed prefix — a handful of small allocations more
// than writing nodes in place, accepted because static tables hold a
// handful of routes while every VRI spawn Clones one.
// The zero value is an empty table ready for use. Like any plain Go value
// it needs external synchronisation when one goroutine writes it while
// another reads; each VRI owns its own.
type Table struct {
	trie Trie[Entry]
}

// Len returns the number of routes in the table.
func (t *Table) Len() int { return t.trie.Len() }

// Insert adds or replaces the route for prefix/bits.
func (t *Table) Insert(prefix packet.IP, bits int, outIf int, nextHop packet.IP) error {
	if bits < 0 || bits > 32 {
		return fmt.Errorf("route: invalid prefix length %d", bits)
	}
	b := uint8(bits)
	t.trie = t.trie.With(prefix, b, &Entry{Prefix: Mask(prefix, b), Bits: bits, OutIf: outIf, NextHop: nextHop})
	return nil
}

// Delete removes the route for exactly prefix/bits, reporting whether it
// existed.
func (t *Table) Delete(prefix packet.IP, bits int) bool {
	if bits < 0 || bits > 32 {
		return false
	}
	var ok bool
	t.trie, ok = t.trie.Without(prefix, uint8(bits))
	return ok
}

// Lookup returns the longest-prefix-match route for dst. It is
// allocation-free.
func (t *Table) Lookup(dst packet.IP) (Entry, error) {
	e, ok := t.trie.Lookup(dst)
	if !ok {
		return Entry{}, ErrNoRoute
	}
	return e, nil
}

// LookupBatch resolves a vector of destinations against the table (see
// Trie.LookupBatch): out[i] is the route for dsts[i], nil when there is none.
// The entries are the table's own; callers must not write through them.
func (t *Table) LookupBatch(dsts []packet.IP, out []*Entry) { t.trie.LookupBatch(dsts, out) }

// Clone returns an independent table holding the same routes: the two share
// the immutable trie as it is now and diverge on the first Insert or Delete
// to either. Each VRI owns a private copy of its VR's routing state (the
// paper's VRIs are separate processes), so dynamic updates applied by one
// instance never race with another instance's lookups.
func (t *Table) Clone() *Table {
	c := *t
	return &c
}

// Entries returns all routes in the table in trie order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.trie.Len())
	t.trie.Walk(func(e Entry) { out = append(out, e) })
	return out
}

// ParseCIDR parses "a.b.c.d/len" into a prefix and length.
func ParseCIDR(s string) (packet.IP, int, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("route: missing '/' in CIDR %q", s)
	}
	ip, err := packet.ParseIP(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return 0, 0, fmt.Errorf("route: invalid prefix length in %q", s)
	}
	return ip, bits, nil
}

// LoadMapFile reads a route map file into a fresh table. The format is the
// paper's "map file" of static routes, one route per line:
//
//	# comment
//	10.2.0.0/16  if1            # directly connected
//	0.0.0.0/0    if0 10.1.0.254 # default via next hop
//
// Interface names must be "ifN"; the numeric suffix is the interface index.
func LoadMapFile(r io.Reader) (*Table, error) {
	t := &Table{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("route: line %d: want 'prefix ifN [nexthop]', got %q", lineNo, line)
		}
		prefix, bits, err := ParseCIDR(fields[0])
		if err != nil {
			return nil, fmt.Errorf("route: line %d: %v", lineNo, err)
		}
		outIf, err := parseIfName(fields[1])
		if err != nil {
			return nil, fmt.Errorf("route: line %d: %v", lineNo, err)
		}
		var nextHop packet.IP
		if len(fields) == 3 {
			nextHop, err = packet.ParseIP(fields[2])
			if err != nil {
				return nil, fmt.Errorf("route: line %d: %v", lineNo, err)
			}
		}
		if err := t.Insert(prefix, bits, outIf, nextHop); err != nil {
			return nil, fmt.Errorf("route: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseIfName(s string) (int, error) {
	if !strings.HasPrefix(s, "if") {
		return 0, fmt.Errorf("interface name %q must be of the form ifN", s)
	}
	n, err := strconv.Atoi(s[2:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("interface name %q must be of the form ifN", s)
	}
	return n, nil
}
