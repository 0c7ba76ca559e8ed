package core

import "repro/internal/wire"

// Poison overwrites what a kept runner carries into its next run, so a
// test can show that no run reads what an earlier run left behind:
// every key arena gets v, every slot digest and view mask claims data
// that is not there, and the encode buffer holds junk. The decode
// scratch is left alone; each decode overwrites what it returns.
func (k *Runner) Poison(v int64) {
	r := &k.r
	keys := r.keyArena[:cap(r.keyArena)]
	for i := range keys {
		keys[i] = v
	}
	for i := range r.digArena {
		r.digArena[i] = wire.Digest{Sum: uint64(v), Xor: ^uint64(v)}
	}
	for i := range r.views {
		for idx := 0; idx < r.views[i].have.Len(); idx++ {
			r.views[i].have.Add(idx)
		}
	}
	enc := r.enc[:cap(r.enc)]
	for i := range enc {
		enc[i] = 0xA5
	}
	r.cur = 1 - r.cur
}
