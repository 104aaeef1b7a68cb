package dns

import "fmt"

// View is a lazy reading of one wire-format message: the fixed header is
// parsed eagerly, the first question is located or decoded on demand, and
// the resource-record sections are never materialised. It is the fast
// path for forwarding roles (proxy, MITM, resolver) that only need to
// rewrite IDs and splice payloads, not inspect every record.
//
// A View aliases the packet it was parsed from; it is only valid while
// that buffer is.
type View struct {
	b    []byte
	Hdr  Header
	qEnd int // offset just past question 0; 0 until located
}

// ParseView parses the header and wraps the packet.
func ParseView(b []byte) (View, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return View{}, err
	}
	return View{b: b, Hdr: h}, nil
}

// Bytes returns the underlying packet.
func (v *View) Bytes() []byte { return v.b }

// QuestionEnd returns the offset just past the first question, locating
// it with a frame-level SkipName walk (no name decoding).
func (v *View) QuestionEnd() (int, error) {
	if v.qEnd != 0 {
		return v.qEnd, nil
	}
	if v.Hdr.QDCount == 0 {
		return 0, fmt.Errorf("%w: no question", ErrBadFormat)
	}
	off, err := SkipName(v.b, HeaderSize)
	if err != nil {
		return 0, err
	}
	off += 4 // qtype + qclass
	if off > len(v.b) {
		return 0, ErrTruncatedMsg
	}
	v.qEnd = off
	return off, nil
}

// QuestionBytes returns the wire bytes of the first question (name,
// type, class), aliasing the packet. ok is false when the question name
// uses compression pointers: such bytes are not self-contained and
// cannot be spliced into another message verbatim.
func (v *View) QuestionBytes() (qb []byte, ok bool, err error) {
	end, err := v.QuestionEnd()
	if err != nil {
		return nil, false, err
	}
	for off := HeaderSize; ; {
		c := v.b[off]
		if c == 0 {
			break
		}
		if c&0xC0 != 0 {
			return nil, false, nil
		}
		off += 1 + int(c)
	}
	return v.b[HeaderSize:end], true, nil
}

// CheckQuestion runs Question's full validation of the first question
// without building or interning the name: it fails exactly when
// Question does.
func (v *View) CheckQuestion() error {
	var scratch [maxNameLen]byte
	_, err := v.question(scratch[:0])
	return err
}

// Question decodes the first question with full validation, interning
// the name exactly like Decode.
func (v *View) Question() (Question, error) {
	var scratch [maxNameLen]byte
	name, err := v.question(scratch[:0])
	if err != nil {
		return Question{}, err
	}
	tc := v.b[v.qEnd-4:]
	return Question{Name: intern(name), Type: Type(tc[0])<<8 | Type(tc[1]),
		Class: Class(tc[2])<<8 | Class(tc[3])}, nil
}

// question validates the first question, appending its dotted name to
// out and recording where the question ends.
func (v *View) question(out []byte) ([]byte, error) {
	if v.Hdr.QDCount == 0 {
		return nil, fmt.Errorf("%w: no question", ErrBadFormat)
	}
	d := decoder{b: v.b, pos: HeaderSize}
	out, err := d.nameBytes(out)
	if err != nil {
		return nil, err
	}
	if d.pos+4 > len(v.b) {
		return nil, ErrTruncatedMsg
	}
	v.qEnd = d.pos + 4
	return out, nil
}
