package image

import (
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// Placement returns img's slide sites, varying sites and pieces, which
// only mem sees otherwise.
func Placement(img *Image) (sites, varying []mem.Site, pieces []mem.Piece) {
	return img.t.sites, img.t.varying, img.t.pieces
}

// FuncKey returns the key that names fn's bytes as a mem.Piece.
func FuncKey(fn *Function) uint64 { return fn.key }

// PLTKey returns the key that names arch's PLT stub bytes.
func PLTKey(arch isa.Arch) uint64 { return pltKey[arch] }
