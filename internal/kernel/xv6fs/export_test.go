package xv6fs

// Test hooks for the external test package, which can import xfsck.
// Everything reads through the mount's buffer cache, the allocators' view.

// AllocHints returns the allocator hints: every inum below ifree and
// every data block below bfree is allocated.
func (f *FS) AllocHints() (ifree, bfree int) {
	f.ialloc.Lock(nil)
	ifree = f.ifree
	f.ialloc.Unlock()
	f.balloc.Lock(nil)
	bfree = f.bfree
	f.balloc.Unlock()
	return ifree, bfree
}

// Geometry returns the mounted superblock.
func (f *FS) Geometry() Superblock { return f.sb }

// InodeFree reports whether inum's on-disk slot is free.
func (f *FS) InodeFree(inum int) (bool, error) {
	var di dinode
	err := f.readInode(nil, inum, &di)
	return di.Type == typeFree, err
}

// BlockFree reports whether lba's bitmap bit is clear, and whether the
// journal still revokes it.
func (f *FS) BlockFree(lba int) (free, revoked bool, err error) {
	err = f.readBlock(nil, int(f.sb.BitmapStart)+lba/(BlockSize*8), func(data []byte) {
		bit := lba % (BlockSize * 8)
		free = data[bit/8]&(1<<(bit%8)) == 0
	})
	return free, free && f.log != nil && f.log.Revoked(lba), err
}

// FirstBlock returns the disk block holding inum's file block 0.
func (f *FS) FirstBlock(inum int) (int, error) {
	var di dinode
	err := f.readInode(nil, inum, &di)
	return int(di.Addrs[0]), err
}
