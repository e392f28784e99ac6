package route

import (
	"testing"

	"lvrm/internal/packet"
)

// TestTrieSpineSharing checks clone-on-write: a change under one subtree
// must not copy unrelated subtrees.
func TestTrieSpineSharing(t *testing.T) {
	v := new(int)
	var t1 Trie[int]
	t1 = t1.With(ip("10.2.0.0"), 16, v).With(ip("192.168.0.0"), 16, v)
	sub1 := findNode(t1.root, ip("192.168.0.0"), 16)
	if sub1 == nil {
		t.Fatal("192.168.0.0/16 node not found")
	}
	kept := findNode(t1.root, ip("10.2.0.0"), 16)

	t2 := t1.With(ip("10.2.3.0"), 24, v)
	if sub2 := findNode(t2.root, ip("192.168.0.0"), 16); sub1 != sub2 {
		t.Fatal("unrelated subtree was copied by With")
	}
	if findNode(t2.root, ip("10.2.0.0"), 16) == kept {
		t.Fatal("With wrote the changed spine in place")
	}
	if findNode(t1.root, ip("10.2.0.0"), 16) != kept || t1.Len() != 2 || t2.Len() != 3 {
		t.Fatalf("receiver changed: Len %d, derived Len %d", t1.Len(), t2.Len())
	}

	t3, ok := t2.Without(ip("10.2.3.0"), 24)
	if !ok || findNode(t3.root, ip("192.168.0.0"), 16) != sub1 {
		t.Fatal("unrelated subtree was copied by Without")
	}
	if t4, ok := t3.Without(ip("10.9.0.0"), 16); ok || t4 != t3 {
		t.Fatal("Without of an absent prefix did not return the receiver")
	}
}

func findNode[V any](n *node[V], prefix packet.IP, bits uint8) *node[V] {
	p := uint32(prefix)
	for n != nil {
		if n.bits >= bits {
			if n.bits == bits && n.prefix == p {
				return n
			}
			return nil
		}
		if (p^n.prefix)>>(32-n.bits) != 0 && n.bits > 0 {
			return nil
		}
		n = n.child[(p>>(31-n.bits))&1]
	}
	return nil
}
