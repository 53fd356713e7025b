//! An extent-based file system plus Spiffy-style layout annotations.
//!
//! Paper §2.3: "prior research from Sun et al. show that such a
//! file-system layout annotation can be generated efficiently for ext4 and
//! F2FS file systems. The availability of annotation enables us to
//! generate file system layout and metadata access codes, thus accessing
//! directories and files directly."
//!
//! The file system here is a compact ext-style design: superblock, a fixed
//! inode table, directories as inode-owned entry lists, and files as up to
//! twelve direct extents. [`FsAnnotation`] captures the layout constants
//! (offsets, sizes, formats); [`annotated_resolve`] is the *generated
//! accessor*: it resolves a path to its extents by reading only the blocks
//! the annotation points at, with no file-system code on the path — which
//! is exactly what lets a DPU walk a host-formatted file system by itself.
//! Experiment E5 compares it against the host software stack.

use hyperion_sim::time::Ns;

use crate::blockstore::{BlockError, BlockStore, BLOCK};

/// Inode table capacity.
pub const MAX_INODES: u64 = 4_096;

/// Direct extents per inode.
pub const EXTENTS_PER_INODE: usize = 12;

/// Bytes per on-disk inode.
pub const INODE_SIZE: u64 = 256;

/// Maximum file-name length in a directory entry.
pub const NAME_LEN: usize = 24;

const SB_MAGIC: u32 = 0x4846_5331; // "HFS1"
const ROOT_INO: u64 = 1;

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Block layer failure.
    Block(BlockError),
    /// Path component missing.
    NotFound(String),
    /// Name already exists in the directory.
    Exists(String),
    /// Inode table exhausted.
    NoInodes,
    /// File has no room for more extents.
    TooManyExtents,
    /// Name longer than [`NAME_LEN`].
    NameTooLong(String),
    /// Operated on a file where a directory was required (or vice versa).
    NotADirectory(String),
    /// Not a valid file system (bad superblock).
    BadSuperblock,
    /// Directory is full (one block of entries).
    DirFull,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Block(e) => write!(f, "block layer: {e}"),
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
            FsError::NoInodes => write!(f, "inode table full"),
            FsError::TooManyExtents => write!(f, "too many extents"),
            FsError::NameTooLong(n) => write!(f, "name too long: {n}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::BadSuperblock => write!(f, "bad superblock"),
            FsError::DirFull => write!(f, "directory full"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<BlockError> for FsError {
    fn from(e: BlockError) -> FsError {
        FsError::Block(e)
    }
}

/// One extent: `len_blocks` blocks starting at `start_lba`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extent {
    /// First block.
    pub start_lba: u64,
    /// Length in blocks.
    pub len_blocks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InodeKind {
    Free,
    File,
    Dir,
}

#[derive(Debug, Clone)]
struct Inode {
    kind: InodeKind,
    size: u64,
    extents: [Extent; EXTENTS_PER_INODE],
    /// For directories: the single entries block.
    dir_block: u64,
}

impl Inode {
    fn encode(&self) -> [u8; INODE_SIZE as usize] {
        let mut out = [0u8; INODE_SIZE as usize];
        out[0] = match self.kind {
            InodeKind::Free => 0,
            InodeKind::File => 1,
            InodeKind::Dir => 2,
        };
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        out[16..24].copy_from_slice(&self.dir_block.to_le_bytes());
        for (i, e) in self.extents.iter().enumerate() {
            let o = 24 + i * 16;
            out[o..o + 8].copy_from_slice(&e.start_lba.to_le_bytes());
            out[o + 8..o + 16].copy_from_slice(&e.len_blocks.to_le_bytes());
        }
        out
    }

    fn decode(raw: &[u8]) -> Inode {
        let kind = match raw[0] {
            1 => InodeKind::File,
            2 => InodeKind::Dir,
            _ => InodeKind::Free,
        };
        let size = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
        let dir_block = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
        let mut extents = [Extent::default(); EXTENTS_PER_INODE];
        for (i, e) in extents.iter_mut().enumerate() {
            let o = 24 + i * 16;
            e.start_lba = u64::from_le_bytes(raw[o..o + 8].try_into().expect("8 bytes"));
            e.len_blocks = u64::from_le_bytes(raw[o + 8..o + 16].try_into().expect("8 bytes"));
        }
        Inode {
            kind,
            size,
            extents,
            dir_block,
        }
    }
}

/// The layout annotation: everything a foreign accessor needs to walk this
/// file system without running its code (the Spiffy artifact of §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsAnnotation {
    /// LBA of the superblock.
    pub superblock_lba: u64,
    /// First LBA of the inode table.
    pub inode_table_lba: u64,
    /// Bytes per inode.
    pub inode_size: u64,
    /// Inode count.
    pub max_inodes: u64,
    /// Root directory inode number.
    pub root_ino: u64,
    /// Extents per inode.
    pub extents_per_inode: u64,
}

/// The mounted file system.
#[derive(Debug)]
pub struct FileSystem {
    inode_table_lba: u64,
}

impl FileSystem {
    /// Formats a file system on `store` and returns the handle.
    pub fn format(store: &mut BlockStore, now: Ns) -> Result<(FileSystem, Ns), FsError> {
        let sb_lba = store.alloc(1)?;
        let table_blocks = MAX_INODES * INODE_SIZE / BLOCK;
        let inode_table_lba = store.alloc(table_blocks)?;
        // Zero the table.
        let mut t = store.write(
            inode_table_lba,
            vec![0u8; (table_blocks * BLOCK) as usize],
            now,
        )?;
        // Superblock.
        let mut sb = vec![0u8; BLOCK as usize];
        sb[0..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&inode_table_lba.to_le_bytes());
        t = store.write(sb_lba, sb, t)?;
        let mut fs = FileSystem { inode_table_lba };
        // Root directory at inode 1 (0 is reserved as "null").
        let dir_block = store.alloc(1)?;
        t = store.write(dir_block, vec![0u8; BLOCK as usize], t)?;
        let root = Inode {
            kind: InodeKind::Dir,
            size: 0,
            extents: [Extent::default(); EXTENTS_PER_INODE],
            dir_block,
        };
        t = fs.write_inode(store, ROOT_INO, &root, t)?;
        Ok((fs, t))
    }

    /// Mounts an existing file system by reading the superblock.
    pub fn mount(
        store: &mut BlockStore,
        sb_lba: u64,
        now: Ns,
    ) -> Result<(FileSystem, Ns), FsError> {
        let (sb, t) = store.read(sb_lba, 1, now)?;
        let magic = u32::from_le_bytes(sb[0..4].try_into().expect("4 bytes"));
        if magic != SB_MAGIC {
            return Err(FsError::BadSuperblock);
        }
        let inode_table_lba = u64::from_le_bytes(sb[8..16].try_into().expect("8 bytes"));
        Ok((FileSystem { inode_table_lba }, t))
    }

    /// Produces the layout annotation for external accessors.
    pub fn annotation(&self) -> FsAnnotation {
        FsAnnotation {
            superblock_lba: 0,
            inode_table_lba: self.inode_table_lba,
            inode_size: INODE_SIZE,
            max_inodes: MAX_INODES,
            root_ino: ROOT_INO,
            extents_per_inode: EXTENTS_PER_INODE as u64,
        }
    }

    fn inode_location(&self, ino: u64) -> (u64, usize) {
        let byte = ino * INODE_SIZE;
        (self.inode_table_lba + byte / BLOCK, (byte % BLOCK) as usize)
    }

    fn read_inode(
        &self,
        store: &mut BlockStore,
        ino: u64,
        now: Ns,
    ) -> Result<(Inode, Ns), FsError> {
        let (lba, off) = self.inode_location(ino);
        let (raw, t) = store.read(lba, 1, now)?;
        Ok((Inode::decode(&raw[off..off + INODE_SIZE as usize]), t))
    }

    fn write_inode(
        &mut self,
        store: &mut BlockStore,
        ino: u64,
        inode: &Inode,
        now: Ns,
    ) -> Result<Ns, FsError> {
        let (lba, off) = self.inode_location(ino);
        let (raw, t) = store.read(lba, 1, now)?;
        let mut raw = raw.to_vec();
        raw[off..off + INODE_SIZE as usize].copy_from_slice(&inode.encode());
        Ok(store.write(lba, raw, t)?)
    }

    fn alloc_inode(&self, store: &mut BlockStore, now: Ns) -> Result<(u64, Ns), FsError> {
        let mut t = now;
        for ino in 2..MAX_INODES {
            let (inode, done) = self.read_inode(store, ino, t)?;
            t = done;
            if inode.kind == InodeKind::Free {
                return Ok((ino, t));
            }
        }
        Err(FsError::NoInodes)
    }

    /// Directory entries: (name, ino) pairs packed into the dir block.
    fn dir_entries(
        &self,
        store: &mut BlockStore,
        dir: &Inode,
        now: Ns,
    ) -> Result<(Vec<(String, u64)>, Ns), FsError> {
        let (raw, t) = store.read(dir.dir_block, 1, now)?;
        Ok((parse_dir_block(&raw), t))
    }

    fn add_dir_entry(
        &mut self,
        store: &mut BlockStore,
        dir_block: u64,
        name: &str,
        ino: u64,
        now: Ns,
    ) -> Result<Ns, FsError> {
        if name.len() > NAME_LEN {
            return Err(FsError::NameTooLong(name.to_string()));
        }
        let (raw, t) = store.read(dir_block, 1, now)?;
        let mut raw = raw.to_vec();
        let entry_size = NAME_LEN + 8;
        let slots = BLOCK as usize / entry_size;
        for s in 0..slots {
            let o = s * entry_size;
            let existing = u64::from_le_bytes(
                raw[o + NAME_LEN..o + NAME_LEN + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            if existing == 0 {
                raw[o..o + name.len()].copy_from_slice(name.as_bytes());
                for b in raw.iter_mut().take(o + NAME_LEN).skip(o + name.len()) {
                    *b = 0;
                }
                raw[o + NAME_LEN..o + NAME_LEN + 8].copy_from_slice(&ino.to_le_bytes());
                return Ok(store.write(dir_block, raw, t)?);
            }
        }
        Err(FsError::DirFull)
    }

    /// Resolves `path` (absolute, `/`-separated) to an inode number via
    /// the normal FS code path.
    pub fn resolve(
        &self,
        store: &mut BlockStore,
        path: &str,
        now: Ns,
    ) -> Result<(u64, Ns), FsError> {
        let mut ino = ROOT_INO;
        let mut t = now;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let (inode, t1) = self.read_inode(store, ino, t)?;
            t = t1;
            if inode.kind != InodeKind::Dir {
                return Err(FsError::NotADirectory(comp.to_string()));
            }
            let (entries, t2) = self.dir_entries(store, &inode, t)?;
            t = t2;
            ino = entries
                .iter()
                .find(|(n, _)| n == comp)
                .map(|(_, i)| *i)
                .ok_or_else(|| FsError::NotFound(comp.to_string()))?;
        }
        Ok((ino, t))
    }

    /// Creates a directory at `path` (parent must exist).
    pub fn mkdir(
        &mut self,
        store: &mut BlockStore,
        path: &str,
        now: Ns,
    ) -> Result<(u64, Ns), FsError> {
        let (parent_path, name) = split_path(path);
        let (parent_ino, t) = self.resolve(store, parent_path, now)?;
        let (parent, t) = self.read_inode(store, parent_ino, t)?;
        let (entries, t) = self.dir_entries(store, &parent, t)?;
        if entries.iter().any(|(n, _)| n == name) {
            return Err(FsError::Exists(name.to_string()));
        }
        let (ino, t) = self.alloc_inode(store, t)?;
        let dir_block = store.alloc(1)?;
        let t = store.write(dir_block, vec![0u8; BLOCK as usize], t)?;
        let t = self.write_inode(
            store,
            ino,
            &Inode {
                kind: InodeKind::Dir,
                size: 0,
                extents: [Extent::default(); EXTENTS_PER_INODE],
                dir_block,
            },
            t,
        )?;
        let t = self.add_dir_entry(store, parent.dir_block, name, ino, t)?;
        Ok((ino, t))
    }

    /// Creates a file at `path` with `data`, allocating extents.
    pub fn create_file(
        &mut self,
        store: &mut BlockStore,
        path: &str,
        data: &[u8],
        now: Ns,
    ) -> Result<(u64, Ns), FsError> {
        let (parent_path, name) = split_path(path);
        let (parent_ino, t) = self.resolve(store, parent_path, now)?;
        let (parent, t) = self.read_inode(store, parent_ino, t)?;
        let (entries, t) = self.dir_entries(store, &parent, t)?;
        if entries.iter().any(|(n, _)| n == name) {
            return Err(FsError::Exists(name.to_string()));
        }
        let (ino, mut t) = self.alloc_inode(store, t)?;
        // One contiguous extent (bump allocation gives contiguity); large
        // files could use several — split at 256 blocks to exercise the
        // extent list.
        let blocks = (data.len() as u64).div_ceil(BLOCK).max(1);
        let mut extents = [Extent::default(); EXTENTS_PER_INODE];
        let mut remaining = blocks;
        let mut written = 0usize;
        let mut i = 0;
        while remaining > 0 {
            if i >= EXTENTS_PER_INODE {
                return Err(FsError::TooManyExtents);
            }
            let chunk = remaining.min(256);
            let lba = store.alloc(chunk)?;
            extents[i] = Extent {
                start_lba: lba,
                len_blocks: chunk,
            };
            let end = (written + (chunk * BLOCK) as usize).min(data.len());
            let mut image = data[written..end].to_vec();
            image.resize((chunk * BLOCK) as usize, 0);
            t = store.write(lba, image, t)?;
            written = end;
            remaining -= chunk;
            i += 1;
        }
        let t = self.write_inode(
            store,
            ino,
            &Inode {
                kind: InodeKind::File,
                size: data.len() as u64,
                extents,
                dir_block: 0,
            },
            t,
        )?;
        let t = self.add_dir_entry(store, parent.dir_block, name, ino, t)?;
        Ok((ino, t))
    }

    /// Reads a whole file by path.
    pub fn read_file(
        &self,
        store: &mut BlockStore,
        path: &str,
        now: Ns,
    ) -> Result<(Vec<u8>, Ns), FsError> {
        let (ino, t) = self.resolve(store, path, now)?;
        let (inode, mut t) = self.read_inode(store, ino, t)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        let mut out = Vec::with_capacity(inode.size as usize);
        for e in inode.extents.iter().filter(|e| e.len_blocks > 0) {
            let (data, done) = store.read(e.start_lba, e.len_blocks as u32, t)?;
            t = done;
            out.extend_from_slice(&data);
        }
        out.truncate(inode.size as usize);
        Ok((out, t))
    }

    /// Lists a directory.
    pub fn list(
        &self,
        store: &mut BlockStore,
        path: &str,
        now: Ns,
    ) -> Result<(Vec<String>, Ns), FsError> {
        let (ino, t) = self.resolve(store, path, now)?;
        let (inode, t) = self.read_inode(store, ino, t)?;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        let (entries, t) = self.dir_entries(store, &inode, t)?;
        Ok((entries.into_iter().map(|(n, _)| n).collect(), t))
    }

    /// Returns a file's extent list (what a remote accessor needs to DMA
    /// the data directly).
    pub fn file_extents(
        &self,
        store: &mut BlockStore,
        path: &str,
        now: Ns,
    ) -> Result<(Vec<Extent>, u64, Ns), FsError> {
        let (ino, t) = self.resolve(store, path, now)?;
        let (inode, t) = self.read_inode(store, ino, t)?;
        Ok((
            inode
                .extents
                .iter()
                .copied()
                .filter(|e| e.len_blocks > 0)
                .collect(),
            inode.size,
            t,
        ))
    }
}

fn parse_dir_block(raw: &[u8]) -> Vec<(String, u64)> {
    let entry_size = NAME_LEN + 8;
    let mut out = Vec::new();
    for s in 0..raw.len() / entry_size {
        let o = s * entry_size;
        let ino = u64::from_le_bytes(
            raw[o + NAME_LEN..o + NAME_LEN + 8]
                .try_into()
                .expect("8 bytes"),
        );
        if ino != 0 {
            let name_bytes = &raw[o..o + NAME_LEN];
            let end = name_bytes.iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
            out.push((
                String::from_utf8_lossy(&name_bytes[..end]).into_owned(),
                ino,
            ));
        }
    }
    out
}

fn split_path(path: &str) -> (&str, &str) {
    let trimmed = path.trim_end_matches('/');
    match trimmed.rfind('/') {
        Some(i) => (&trimmed[..i], &trimmed[i + 1..]),
        None => ("", trimmed),
    }
}

/// The annotation-driven accessor: resolves `path` to the file's extents
/// using **only** the layout constants — no file-system code, no host.
///
/// This is the code a DPU (or the Hyperion compiler's generated HDL) runs
/// to walk a file system it did not format (§2.3). It performs the same
/// block reads the FS would, but nothing else.
pub fn annotated_resolve(
    store: &mut BlockStore,
    ann: &FsAnnotation,
    path: &str,
    now: Ns,
) -> Result<(Vec<Extent>, u64, Ns), FsError> {
    let read_inode = |store: &mut BlockStore, ino: u64, t: Ns| -> Result<(Inode, Ns), FsError> {
        let byte = ino * ann.inode_size;
        let lba = ann.inode_table_lba + byte / BLOCK;
        let off = (byte % BLOCK) as usize;
        let (raw, t) = store.read(lba, 1, t)?;
        Ok((Inode::decode(&raw[off..off + ann.inode_size as usize]), t))
    };
    let mut ino = ann.root_ino;
    let mut t = now;
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        let (inode, t1) = read_inode(store, ino, t)?;
        t = t1;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotADirectory(comp.to_string()));
        }
        let (raw, t2) = store.read(inode.dir_block, 1, t)?;
        t = t2;
        ino = parse_dir_block(&raw)
            .iter()
            .find(|(n, _)| n == comp)
            .map(|(_, i)| *i)
            .ok_or_else(|| FsError::NotFound(comp.to_string()))?;
    }
    let (inode, t) = read_inode(store, ino, t)?;
    Ok((
        inode
            .extents
            .iter()
            .copied()
            .filter(|e| e.len_blocks > 0)
            .collect(),
        inode.size,
        t,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> (BlockStore, FileSystem) {
        let mut store = BlockStore::with_capacity(1 << 20);
        let (fs, _) = FileSystem::format(&mut store, Ns::ZERO).unwrap();
        (store, fs)
    }

    #[test]
    fn format_and_mount() {
        let (mut store, _fs) = fs();
        let (mounted, _) = FileSystem::mount(&mut store, 0, Ns::ZERO).unwrap();
        let (names, _) = mounted.list(&mut store, "/", Ns::ZERO).unwrap();
        assert!(names.is_empty());
    }

    #[test]
    fn mount_rejects_garbage() {
        let mut store = BlockStore::with_capacity(64);
        store.alloc(1).unwrap();
        store
            .write(0, vec![0xAB; BLOCK as usize], Ns::ZERO)
            .unwrap();
        assert!(matches!(
            FileSystem::mount(&mut store, 0, Ns::ZERO),
            Err(FsError::BadSuperblock)
        ));
    }

    #[test]
    fn create_and_read_file() {
        let (mut store, mut f) = fs();
        let data = b"hello hyperion".to_vec();
        f.create_file(&mut store, "/hello.txt", &data, Ns::ZERO)
            .unwrap();
        let (back, _) = f.read_file(&mut store, "/hello.txt", Ns::ZERO).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn nested_directories() {
        let (mut store, mut f) = fs();
        f.mkdir(&mut store, "/data", Ns::ZERO).unwrap();
        f.mkdir(&mut store, "/data/warehouse", Ns::ZERO).unwrap();
        f.create_file(&mut store, "/data/warehouse/t.parquet", b"cols", Ns::ZERO)
            .unwrap();
        let (back, _) = f
            .read_file(&mut store, "/data/warehouse/t.parquet", Ns::ZERO)
            .unwrap();
        assert_eq!(back, b"cols");
        let (names, _) = f.list(&mut store, "/data", Ns::ZERO).unwrap();
        assert_eq!(names, vec!["warehouse".to_string()]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut store, mut f) = fs();
        f.create_file(&mut store, "/x", b"1", Ns::ZERO).unwrap();
        assert!(matches!(
            f.create_file(&mut store, "/x", b"2", Ns::ZERO),
            Err(FsError::Exists(_))
        ));
    }

    #[test]
    fn missing_paths_error() {
        let (mut store, f) = fs();
        assert!(matches!(
            f.read_file(&mut store, "/nope", Ns::ZERO),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn large_files_span_extents() {
        let (mut store, mut f) = fs();
        let data = vec![0x5A; 300 * BLOCK as usize]; // > 256-block chunk
        f.create_file(&mut store, "/big", &data, Ns::ZERO).unwrap();
        let (extents, size, _) = f.file_extents(&mut store, "/big", Ns::ZERO).unwrap();
        assert!(extents.len() >= 2);
        assert_eq!(size, data.len() as u64);
        let (back, _) = f.read_file(&mut store, "/big", Ns::ZERO).unwrap();
        assert_eq!(back.len(), data.len());
        assert!(back.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn annotated_resolve_matches_fs_resolve() {
        let (mut store, mut f) = fs();
        f.mkdir(&mut store, "/a", Ns::ZERO).unwrap();
        f.mkdir(&mut store, "/a/b", Ns::ZERO).unwrap();
        f.create_file(&mut store, "/a/b/file.bin", &vec![9u8; 10_000], Ns::ZERO)
            .unwrap();
        let ann = f.annotation();
        let (ext_fs, size_fs, _) = f
            .file_extents(&mut store, "/a/b/file.bin", Ns::ZERO)
            .unwrap();
        let (ext_ann, size_ann, _) =
            annotated_resolve(&mut store, &ann, "/a/b/file.bin", Ns::ZERO).unwrap();
        assert_eq!(ext_fs, ext_ann);
        assert_eq!(size_fs, size_ann);
    }

    #[test]
    fn annotated_resolve_reads_minimal_blocks() {
        let (mut store, mut f) = fs();
        f.mkdir(&mut store, "/d", Ns::ZERO).unwrap();
        f.create_file(&mut store, "/d/f", b"x", Ns::ZERO).unwrap();
        let ann = f.annotation();
        let before = store.reads();
        annotated_resolve(&mut store, &ann, "/d/f", Ns::ZERO).unwrap();
        let reads = store.reads() - before;
        // Walk: root inode + root dir + d inode + d dir + f inode = 5.
        assert_eq!(reads, 5, "annotated walk reads exactly the metadata path");
    }

    #[test]
    fn name_length_enforced() {
        let (mut store, mut f) = fs();
        let long = "x".repeat(NAME_LEN + 1);
        assert!(matches!(
            f.create_file(&mut store, &format!("/{long}"), b"", Ns::ZERO),
            Err(FsError::NameTooLong(_))
        ));
    }
}
