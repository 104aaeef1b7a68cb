//go:build netsimdebug

package netsim

import (
	"bytes"
	"testing"
)

// TestPoisonCatchesRetainedAlias: a handler that breaks the
// payload-recycling contract by keeping an alias to the delivered
// buffer sees PoisonByte fill once the handler returns, instead of
// silently reading whichever datagram reuses the backing array next.
// So does a sender that keeps the Buffer it handed to Send.
func TestPoisonCatchesRetainedAlias(t *testing.T) {
	t.Run("handler", testPoisonHandlerAlias)
	t.Run("sender", testPoisonSenderAlias)
}

func testPoisonHandlerAlias(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", IP{10, 0, 0, 1})
	b, _ := n.AddHost("b", IP{10, 0, 0, 2})

	var retained []byte
	if _, err := b.Bind(7, func(dg Datagram) {
		retained = dg.Payload // contract violation under test
	}); err != nil {
		t.Fatal(err)
	}
	src, err := a.Bind(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.SendTo(Addr{IP: IP{10, 0, 0, 2}, Port: 7}, []byte("secret"))
	n.Run(10)

	if retained == nil {
		t.Fatal("handler never ran")
	}
	want := bytes.Repeat([]byte{PoisonByte}, len(retained))
	if !bytes.Equal(retained, want) {
		t.Fatalf("retained alias survived recycling: %q", retained)
	}
	// A well-behaved handler's copy is of course untouched.
	if string(want) == "secret" {
		t.Fatal("impossible")
	}
}

func testPoisonSenderAlias(t *testing.T) {
	n := New()
	a, _ := n.AddHost("a", IP{10, 0, 0, 1})
	b, _ := n.AddHost("b", IP{10, 0, 0, 2})
	var delivered []byte
	if _, err := b.Bind(7, func(dg Datagram) {
		delivered = append([]byte(nil), dg.Payload...)
	}); err != nil {
		t.Fatal(err)
	}
	src, err := a.Bind(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := append(src.Buffer(6), "secret"...)
	src.Send(Addr{IP: IP{10, 0, 0, 2}, Port: 7}, kept) // kept is the network's now
	n.Run(10)

	if string(delivered) != "secret" {
		t.Fatalf("delivered %q", delivered)
	}
	if want := bytes.Repeat([]byte{PoisonByte}, len(kept)); !bytes.Equal(kept, want) {
		t.Fatalf("sender's retained buffer survived recycling: %q", kept)
	}
}
