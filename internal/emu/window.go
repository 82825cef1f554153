package emu

import "rvdyn/internal/riscv"

// Code windows: the decode and superblock caches, direct-mapped over code
// address ranges. CPU.image covers the executable image present at load
// time; MapCode adds a window per mapped code region (a DBI engine's code
// cache) to CPU.mapped, so code there takes the same array path as the
// image. A window is a slice of 4 KiB code pages; a mapped window's pages
// are allocated on the first decode in them, so it costs one pointer per
// page until code in it runs. Code outside every window (guest-created
// code, trampolines) goes through CPU.icOverflow and CPU.blkMap.

// codePage caches the decodes and the superblocks starting in one 4 KiB
// page of code, at slot (pc&pageMask)>>1. An empty decode has Len 0. blk
// comes first so the collector scans only it: riscv.Inst holds no pointers.
type codePage struct {
	blk [pageSize / 2]*block
	ic  [pageSize / 2]riscv.Inst
}

// codeWindow direct-maps the code pages of [base, end), both page-aligned.
type codeWindow struct {
	base, end uint64
	pages     []*codePage
}

// slot is pc's index within its code page.
func slot(pc uint64) uint64 { return (pc & pageMask) >> 1 }

// window returns the window containing pc, or nil. The image window is
// checked first, inline: it serves every native run. Where windows overlap
// the first one owns the page, so every path agrees on where a PC's slot
// lives.
func (c *CPU) window(pc uint64) *codeWindow {
	if w := &c.image; pc-w.base < w.end-w.base {
		return w
	}
	return c.mappedWindow(pc)
}

func (c *CPU) mappedWindow(pc uint64) *codeWindow {
	for i := range c.mapped {
		if w := &c.mapped[i]; pc-w.base < w.end-w.base {
			return w
		}
	}
	return nil
}

// codePage returns the page holding pc's slot (nil if nothing was decoded
// in it yet) and whether pc lies in a window at all.
func (c *CPU) codePage(pc uint64) (*codePage, bool) {
	w := c.window(pc)
	if w == nil {
		return nil, false
	}
	return w.pages[(pc-w.base)>>pageBits], true
}

// allocCodePage returns the page holding pc's slot, allocating it on first
// use, or nil when pc lies outside every window.
func (c *CPU) allocCodePage(pc uint64) *codePage {
	w := c.window(pc)
	if w == nil {
		return nil
	}
	p := &w.pages[(pc-w.base)>>pageBits]
	if *p == nil {
		*p = new(codePage)
	}
	return *p
}

// newWindow direct-maps [lo, hi) rounded out to whole pages.
func newWindow(lo, hi uint64) codeWindow {
	lo, hi = lo&^pageMask, (hi+pageMask)&^pageMask
	return codeWindow{base: lo, end: hi, pages: make([]*codePage, (hi-lo)>>pageBits)}
}

// MapCode maps fresh zeroed memory at [addr, addr+size), like Memory.Map,
// and direct-maps the decode and block caches over it in a window of its
// own; a range an existing window already covers only maps memory.
// Decodes the overflow map holds inside a new window would be shadowed by
// it, so they are flushed first (code runs there before MapCode only if
// the memory was mapped another way).
func (c *CPU) MapCode(addr, size uint64) {
	c.Mem.Map(addr, size)
	w := newWindow(addr, addr+size)
	for _, o := range append([]codeWindow{c.image}, c.mapped...) {
		if o.base <= w.base && o.end >= w.end {
			return
		}
	}
	for pc := range c.icOverflow {
		if pc >= w.base && pc < w.end {
			c.FlushICache()
			break
		}
	}
	c.mapped = append(c.mapped, w)
}
