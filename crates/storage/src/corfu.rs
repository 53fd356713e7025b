//! A Corfu-style distributed shared log.
//!
//! Paper §2.4: "network-attached SSDs that can export application-defined,
//! high-level, fault-tolerant data structures ... such as
//! distributed/shared ordered logs" and "we can build network-attached
//! SSDs that can support Corfu consensus protocol [20, 165]". Following
//! the CORFU design:
//!
//! * a **sequencer** hands out monotonically increasing log positions
//!   (a fast in-memory counter — an optimization, not a point of truth);
//! * positions stripe across a cluster of **log units** (flash-backed,
//!   write-once pages with seal support);
//! * clients write the unit directly and can **fill** holes; reads go to
//!   the unit owning the position;
//! * **seal(epoch)** fences stragglers during reconfiguration: units
//!   reject operations from sealed epochs, and the projection (the
//!   stripe map) moves to a new epoch.

use std::collections::HashMap;

use bytes::Bytes;
use hyperion_sim::time::Ns;

use crate::blockstore::{BlockError, BlockStore, BLOCK};

/// Errors from the shared log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorfuError {
    /// Position already written (write-once violation).
    AlreadyWritten(u64),
    /// Position not yet written.
    NotWritten(u64),
    /// Operation carried a stale epoch (unit was sealed).
    SealedEpoch {
        /// The client's epoch.
        have: u64,
        /// The unit's epoch.
        need: u64,
    },
    /// Position was filled as a junk hole.
    Filled(u64),
    /// Entry too large for one log page.
    TooLarge(usize),
    /// The unit holding this position has failed.
    UnitFailed(usize),
    /// Too few live units remain to satisfy the replication factor —
    /// failover needs a spare before the log can accept writes again.
    Insufficient {
        /// Live units remaining.
        live: usize,
        /// Units the replication factor requires.
        need: usize,
    },
    /// Block layer failure.
    Block(BlockError),
}

impl std::fmt::Display for CorfuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorfuError::AlreadyWritten(p) => write!(f, "position {p} already written"),
            CorfuError::NotWritten(p) => write!(f, "position {p} not written"),
            CorfuError::SealedEpoch { have, need } => {
                write!(f, "stale epoch {have} (unit at {need})")
            }
            CorfuError::Filled(p) => write!(f, "position {p} was filled"),
            CorfuError::TooLarge(n) => write!(f, "entry of {n} B exceeds the log page"),
            CorfuError::UnitFailed(u) => write!(f, "log unit {u} has failed"),
            CorfuError::Insufficient { live, need } => {
                write!(f, "{live} live units cannot satisfy replication {need}")
            }
            CorfuError::Block(e) => write!(f, "block layer: {e}"),
        }
    }
}

impl std::error::Error for CorfuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorfuError::Block(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockError> for CorfuError {
    fn from(e: BlockError) -> CorfuError {
        CorfuError::Block(e)
    }
}

/// What a log position holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// Client data.
    Data(Bytes),
    /// A junk-filled hole.
    Junk,
}

/// The sequencer: hands out the next free position.
#[derive(Debug, Default)]
pub struct Sequencer {
    next: u64,
}

impl Sequencer {
    /// Creates a sequencer starting at position 0.
    pub fn new() -> Sequencer {
        Sequencer::default()
    }

    /// Reserves and returns the next log position.
    pub fn next_token(&mut self) -> u64 {
        let t = self.next;
        self.next += 1;
        t
    }

    /// The current tail (next unwritten position).
    pub fn tail(&self) -> u64 {
        self.next
    }

    /// Raises the tail after recovery/reconfiguration. Monotonic: the
    /// sequencer never moves backwards, so a recovered tail computed from
    /// sealed units (which cannot see tokens handed out but never
    /// written — trailing holes) can never cause a position to be handed
    /// out twice. A genuinely crashed sequencer is a *fresh* `Sequencer`
    /// whose state starts at zero and is then raised by reconfiguration.
    pub fn reset_to(&mut self, tail: u64) {
        self.next = self.next.max(tail);
    }
}

/// Bytes of the page header in front of each entry: its length (`u32`)
/// and its position (`u64`).
const HEADER: usize = 12;

/// Rejects an entry that does not fit one log page behind its header.
fn check_size(data: &[u8]) -> Result<(), CorfuError> {
    if data.len() > BLOCK as usize - HEADER {
        Err(CorfuError::TooLarge(data.len()))
    } else {
        Ok(())
    }
}

/// A flash-backed, write-once log unit covering a stripe of positions.
#[derive(Debug)]
pub struct LogUnit {
    store: BlockStore,
    epoch: u64,
    /// position -> (lba, is_junk). Write-once is enforced here.
    written: HashMap<u64, (u64, bool)>,
}

impl LogUnit {
    /// Creates a unit over a fresh conventional device of `capacity_lbas`.
    pub fn new(capacity_lbas: u64) -> LogUnit {
        LogUnit {
            store: BlockStore::with_capacity(capacity_lbas),
            epoch: 0,
            written: HashMap::new(),
        }
    }

    /// The unit's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn check_epoch(&self, epoch: u64) -> Result<(), CorfuError> {
        if epoch < self.epoch {
            Err(CorfuError::SealedEpoch {
                have: epoch,
                need: self.epoch,
            })
        } else {
            Ok(())
        }
    }

    /// Seals the unit at `epoch`: all operations with older epochs are
    /// rejected from now on. Returns the highest written position (for
    /// tail discovery during reconfiguration).
    pub fn seal(&mut self, epoch: u64) -> u64 {
        self.epoch = self.epoch.max(epoch);
        self.written
            .keys()
            .copied()
            .max()
            .map(|p| p + 1)
            .unwrap_or(0)
    }

    /// Writes `data` at `position` (write-once).
    pub fn write(
        &mut self,
        epoch: u64,
        position: u64,
        data: &[u8],
        now: Ns,
    ) -> Result<Ns, CorfuError> {
        self.check_epoch(epoch)?;
        check_size(data)?;
        if self.written.contains_key(&position) {
            return Err(CorfuError::AlreadyWritten(position));
        }
        let mut image = Vec::with_capacity(BLOCK as usize);
        image.extend_from_slice(&(data.len() as u32).to_le_bytes());
        image.extend_from_slice(&position.to_le_bytes());
        image.extend_from_slice(data);
        image.resize(BLOCK as usize, 0);
        let lba = self.store.alloc(1)?;
        let done = self.store.write(lba, image, now)?;
        self.written.insert(position, (lba, false));
        Ok(done)
    }

    /// Fills `position` with junk (hole filling after a failed writer).
    pub fn fill(&mut self, epoch: u64, position: u64, now: Ns) -> Result<Ns, CorfuError> {
        self.check_epoch(epoch)?;
        if self.written.contains_key(&position) {
            return Err(CorfuError::AlreadyWritten(position));
        }
        self.written.insert(position, (0, true));
        Ok(now + Ns(500)) // metadata-only operation
    }

    /// Reads `position`.
    pub fn read(
        &mut self,
        epoch: u64,
        position: u64,
        now: Ns,
    ) -> Result<(LogEntry, Ns), CorfuError> {
        self.check_epoch(epoch)?;
        match self.written.get(&position) {
            None => Err(CorfuError::NotWritten(position)),
            Some(&(_, true)) => Ok((LogEntry::Junk, now)),
            Some(&(lba, false)) => {
                let (raw, done) = self.store.read(lba, 1, now)?;
                let len = u32::from_le_bytes(raw[0..4].try_into().expect("4 bytes")) as usize;
                Ok((LogEntry::Data(raw.slice(HEADER..HEADER + len)), done))
            }
        }
    }
}

/// One epoch's stripe map: which units serve which positions.
///
/// CORFU's *projection*: when units fail or join, a new projection is
/// installed at the current tail; older positions keep resolving through
/// the projection that was active when they were written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// First log position this projection covers.
    pub from_pos: u64,
    /// Indices into the unit pool forming this stripe.
    pub unit_ids: Vec<usize>,
}

/// The client-visible shared log over a stripe of units, with optional
/// chain replication and failure-driven reconfiguration.
#[derive(Debug)]
pub struct CorfuLog {
    units: Vec<LogUnit>,
    failed: Vec<bool>,
    /// Spare units: in the pool but in no projection until failover
    /// promotes one as a replacement.
    spares: Vec<usize>,
    /// Projection history, ascending by `from_pos`.
    projections: Vec<Projection>,
    replication: usize,
    epoch: u64,
    sequencer: Sequencer,
}

/// What a [`CorfuLog::fail_over`] run did, for telemetry and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// The epoch every live unit is now sealed into.
    pub epoch: u64,
    /// Positions whose lost replica was rebuilt from a survivor.
    pub repaired_positions: u64,
    /// Committed positions with no surviving replica (junk-filled on the
    /// replacement so reads terminate instead of hanging). Zero whenever
    /// `replication >= 2` and at most one unit is down.
    pub lost_positions: u64,
    /// The spare that took over the failed unit's stripe role, if any.
    pub replacement: Option<usize>,
    /// Instant the repair traffic finished draining.
    pub done: Ns,
}

impl CorfuLog {
    /// Creates a log striped over `n_units` units (no replication).
    ///
    /// # Panics
    ///
    /// Panics if `n_units` is zero.
    pub fn new(n_units: usize, unit_capacity_lbas: u64) -> CorfuLog {
        Self::build(
            (0..n_units)
                .map(|_| LogUnit::new(unit_capacity_lbas))
                .collect(),
            1,
        )
    }

    /// Creates a log with chain replication: every position is written to
    /// `replication` consecutive units of its stripe, in order, and is
    /// durable when the last replica acknowledges.
    ///
    /// # Panics
    ///
    /// Panics if `n_units` is zero or `replication` is not in
    /// `1..=n_units`.
    pub fn new_replicated(n_units: usize, unit_capacity_lbas: u64, replication: usize) -> CorfuLog {
        assert!(
            (1..=n_units).contains(&replication),
            "replication must be in 1..=n_units"
        );
        Self::build(
            (0..n_units)
                .map(|_| LogUnit::new(unit_capacity_lbas))
                .collect(),
            replication,
        )
    }

    fn build(units: Vec<LogUnit>, replication: usize) -> CorfuLog {
        assert!(!units.is_empty(), "need at least one log unit");
        let n = units.len();
        CorfuLog {
            units,
            failed: vec![false; n],
            spares: Vec::new(),
            projections: vec![Projection {
                from_pos: 0,
                unit_ids: (0..n).collect(),
            }],
            replication,
            epoch: 0,
            sequencer: Sequencer::new(),
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of units in the pool (including failed ones).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The active projection.
    pub fn current_projection(&self) -> &Projection {
        self.projections.last().expect("at least one projection")
    }

    fn projection_for(&self, position: u64) -> &Projection {
        self.projections
            .iter()
            .rev()
            .find(|p| p.from_pos <= position)
            .expect("projection 0 covers position 0")
    }

    /// The replica chain (unit indices) for `position`, primary first.
    fn replicas_of(&self, position: u64) -> Vec<usize> {
        let p = self.projection_for(position);
        let w = p.unit_ids.len();
        let first = ((position - p.from_pos) % w as u64) as usize;
        (0..self.replication.min(w))
            .map(|k| p.unit_ids[(first + k) % w])
            .collect()
    }

    /// Appends `data`: token from the sequencer, then a chain write over
    /// the position's replicas. Returns the assigned position and the
    /// durability instant (last replica's acknowledgement).
    ///
    /// An entry too large for one log page fails with
    /// [`CorfuError::TooLarge`] before it takes a token, so it leaves no
    /// hole. Fails with [`CorfuError::UnitFailed`] if any replica in the
    /// chain has failed — the client should [`CorfuLog::reconfigure`] and
    /// retry.
    pub fn append(&mut self, data: &[u8], now: Ns) -> Result<(u64, Ns), CorfuError> {
        check_size(data)?;
        let position = self.sequencer.next_token();
        let epoch = self.epoch;
        let chain = self.replicas_of(position);
        for &u in &chain {
            if self.failed[u] {
                return Err(CorfuError::UnitFailed(u));
            }
        }
        let mut t = now;
        for &u in &chain {
            t = self.units[u].write(epoch, position, data, t)?;
        }
        Ok((position, t))
    }

    /// Reads a position from the first live replica holding it.
    pub fn read(&mut self, position: u64, now: Ns) -> Result<(LogEntry, Ns), CorfuError> {
        let epoch = self.epoch;
        let chain = self.replicas_of(position);
        let mut last_err = CorfuError::NotWritten(position);
        for &u in &chain {
            if self.failed[u] {
                last_err = CorfuError::UnitFailed(u);
                continue;
            }
            match self.units[u].read(epoch, position, now) {
                Ok(out) => return Ok(out),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Fills a hole at `position` (e.g. a crashed writer's token) on every
    /// live replica.
    pub fn fill(&mut self, position: u64, now: Ns) -> Result<Ns, CorfuError> {
        let epoch = self.epoch;
        let chain = self.replicas_of(position);
        let mut t = now;
        for &u in &chain {
            if !self.failed[u] {
                t = self.units[u].fill(epoch, position, t)?;
            }
        }
        Ok(t)
    }

    /// Marks a unit failed: it stops serving reads and fences writes.
    /// Call [`CorfuLog::reconfigure`] to install a projection without it.
    pub fn fail_unit(&mut self, unit: usize) {
        self.failed[unit] = true;
    }

    /// Reconfigures into a new epoch: seals every live unit, recomputes
    /// the tail, resets the sequencer, and — if any unit has failed —
    /// installs a new projection over the survivors at the tail
    /// (the CORFU recipe for sequencer failure and projection change).
    ///
    /// # Panics
    ///
    /// Panics if fewer live units remain than the replication factor.
    pub fn reconfigure(&mut self) -> u64 {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut tail = 0;
        for u in self.units.iter_mut() {
            tail = tail.max(u.seal(epoch));
        }
        self.sequencer.reset_to(tail);
        let live: Vec<usize> = (0..self.units.len())
            .filter(|&i| !self.failed[i] && !self.spares.contains(&i))
            .collect();
        assert!(
            live.len() >= self.replication,
            "not enough live units for replication factor"
        );
        if live != self.current_projection().unit_ids {
            self.projections.push(Projection {
                from_pos: tail,
                unit_ids: live,
            });
        }
        self.epoch
    }

    /// The log tail (next position to be assigned).
    pub fn tail(&self) -> u64 {
        self.sequencer.tail()
    }

    /// Direct unit access for fault-injection tests.
    pub fn unit_mut(&mut self, i: usize) -> &mut LogUnit {
        &mut self.units[i]
    }

    /// Adds a hot spare to the pool: a fresh unit that serves no stripe
    /// until [`CorfuLog::fail_over`] promotes it as a replacement.
    /// Returns its unit index.
    pub fn add_spare_unit(&mut self, capacity_lbas: u64) -> usize {
        self.units.push(LogUnit::new(capacity_lbas));
        self.failed.push(false);
        let id = self.units.len() - 1;
        self.spares.push(id);
        id
    }

    /// The automatic CORFU failover: marks `failed_unit` dead, seals every
    /// live unit into a new epoch (fencing stragglers — the dead unit is
    /// unreachable and keeps its old epoch, which is exactly why every
    /// *surviving* unit rejects its late writes), recomputes the tail,
    /// and — when a spare is available — runs **replica repair**: every
    /// committed position whose chain crossed the dead unit is rebuilt
    /// from a surviving replica onto the spare, which then takes over the
    /// dead unit's role in every projection (old positions keep
    /// resolving; new appends stripe over the repaired set).
    ///
    /// Without a spare, survivors form the new projection; if fewer live
    /// units remain than the replication factor the log refuses with
    /// [`CorfuError::Insufficient`] instead of panicking — availability
    /// decisions belong to the cluster layer, not an assert.
    ///
    /// Repair is sequential over positions (one read + one write each),
    /// so `FailoverReport::done` prices the unavailability window the
    /// repair traffic contributes.
    pub fn fail_over(&mut self, failed_unit: usize, now: Ns) -> Result<FailoverReport, CorfuError> {
        self.failed[failed_unit] = true;
        self.spares.retain(|&s| s != failed_unit);
        let epoch = self.epoch + 1;
        let mut tail = 0;
        for (i, u) in self.units.iter_mut().enumerate() {
            if !self.failed[i] {
                tail = tail.max(u.seal(epoch));
            }
        }
        self.epoch = epoch;
        self.sequencer.reset_to(tail);

        let replacement = self.spares.first().copied();
        let mut repaired = 0u64;
        let mut lost = 0u64;
        let mut t = now;
        if let Some(spare) = replacement {
            self.spares.retain(|&s| s != spare);
            // Rebuild every position whose chain crossed the dead unit
            // *before* the projections are rewritten, so the chains still
            // name the dead unit and its survivors.
            for pos in 0..tail {
                let chain = self.replicas_of(pos);
                if !chain.contains(&failed_unit) {
                    continue;
                }
                let mut rebuilt = None;
                for &u in &chain {
                    if self.failed[u] {
                        continue;
                    }
                    match self.units[u].read(epoch, pos, t) {
                        Ok((entry, done)) => {
                            rebuilt = Some((entry, done));
                            break;
                        }
                        Err(_) => continue,
                    }
                }
                match rebuilt {
                    Some((LogEntry::Data(data), read_done)) => {
                        t = self.units[spare].write(epoch, pos, &data, read_done)?;
                        repaired += 1;
                    }
                    Some((LogEntry::Junk, read_done)) => {
                        t = self.units[spare].fill(epoch, pos, read_done)?;
                        repaired += 1;
                    }
                    None => {
                        // Was the position ever written? A hole (token
                        // handed out, never written, never filled) is not
                        // data loss; a written position with no surviving
                        // replica is.
                        if self.units[failed_unit].written.contains_key(&pos) {
                            lost += 1;
                            t = self.units[spare].fill(epoch, pos, t)?;
                        }
                    }
                }
            }
            // The spare assumes the dead unit's identity in every epoch's
            // stripe map: history and future both resolve through it.
            for p in &mut self.projections {
                for id in &mut p.unit_ids {
                    if *id == failed_unit {
                        *id = spare;
                    }
                }
            }
        } else {
            let live: Vec<usize> = (0..self.units.len())
                .filter(|&i| !self.failed[i] && !self.spares.contains(&i))
                .collect();
            if live.len() < self.replication {
                return Err(CorfuError::Insufficient {
                    live: live.len(),
                    need: self.replication,
                });
            }
            if live != self.current_projection().unit_ids {
                self.projections.push(Projection {
                    from_pos: tail,
                    unit_ids: live,
                });
            }
        }
        Ok(FailoverReport {
            epoch,
            repaired_positions: repaired,
            lost_positions: lost,
            replacement,
            done: t,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> CorfuLog {
        CorfuLog::new(4, 1 << 16)
    }

    #[test]
    fn append_then_read_in_order() {
        let mut l = log();
        let mut positions = Vec::new();
        for i in 0..16u32 {
            let (pos, _) = l.append(format!("entry-{i}").as_bytes(), Ns::ZERO).unwrap();
            positions.push(pos);
        }
        assert_eq!(positions, (0..16u64).collect::<Vec<_>>());
        for (i, pos) in positions.iter().enumerate() {
            let (entry, _) = l.read(*pos, Ns::ZERO).unwrap();
            assert_eq!(entry, LogEntry::Data(Bytes::from(format!("entry-{i}"))));
        }
    }

    #[test]
    fn positions_stripe_across_units() {
        let mut l = log();
        for _ in 0..8 {
            l.append(b"x", Ns::ZERO).unwrap();
        }
        // Positions 0..8 over 4 units: unit 0 has 0 and 4, etc.
        let (e, _) = l.unit_mut(1).read(0, 1, Ns::ZERO).unwrap();
        assert_eq!(e, LogEntry::Data(Bytes::from_static(b"x")));
        assert!(matches!(
            l.unit_mut(1).read(0, 2, Ns::ZERO),
            Err(CorfuError::NotWritten(2))
        ));
    }

    #[test]
    fn write_once_is_enforced() {
        let mut l = log();
        let (pos, _) = l.append(b"first", Ns::ZERO).unwrap();
        let u = (pos % 4) as usize;
        assert!(matches!(
            l.unit_mut(u).write(0, pos, b"second", Ns::ZERO),
            Err(CorfuError::AlreadyWritten(_))
        ));
    }

    #[test]
    fn holes_can_be_filled_and_read_as_junk() {
        let mut l = log();
        // A writer takes a token and crashes: position 0 is a hole.
        let token = l.sequencer.next_token();
        assert_eq!(token, 0);
        l.append(b"second", Ns::ZERO).unwrap(); // position 1
        assert!(matches!(
            l.read(0, Ns::ZERO),
            Err(CorfuError::NotWritten(0))
        ));
        l.fill(0, Ns::ZERO).unwrap();
        let (e, _) = l.read(0, Ns::ZERO).unwrap();
        assert_eq!(e, LogEntry::Junk);
    }

    #[test]
    fn sealing_fences_stale_epochs() {
        let mut l = log();
        l.append(b"pre", Ns::ZERO).unwrap();
        let new_epoch = l.reconfigure();
        assert_eq!(new_epoch, 1);
        // A straggler with epoch 0 is rejected at the unit.
        assert!(matches!(
            l.unit_mut(0).write(0, 100, b"stale", Ns::ZERO),
            Err(CorfuError::SealedEpoch { have: 0, need: 1 })
        ));
        // Current-epoch appends continue after the tail.
        let (pos, _) = l.append(b"post", Ns::ZERO).unwrap();
        assert_eq!(pos, 1);
    }

    #[test]
    fn reconfigure_recovers_tail_from_units() {
        let mut l = log();
        for _ in 0..10 {
            l.append(b"x", Ns::ZERO).unwrap();
        }
        // Sequencer crashes: a fresh instance starts at zero, then
        // reconfiguration raises it from the sealed units.
        l.sequencer = Sequencer::new();
        l.reconfigure();
        assert_eq!(l.tail(), 10, "tail rebuilt from sealed units");
        let (pos, _) = l.append(b"new", Ns::ZERO).unwrap();
        assert_eq!(pos, 10);
    }

    #[test]
    fn seal_is_idempotent_and_never_lowers_the_epoch() {
        let mut u = LogUnit::new(1 << 10);
        u.write(0, 0, b"a", Ns::ZERO).unwrap();
        u.write(0, 4, b"b", Ns::ZERO).unwrap();
        let tail = u.seal(3);
        assert_eq!(tail, 5, "tail is highest written position + 1");
        assert_eq!(u.epoch(), 3);
        // Idempotent: sealing the same epoch again changes nothing.
        assert_eq!(u.seal(3), 5);
        assert_eq!(u.epoch(), 3);
        // A lower epoch is rejected: the unit's epoch never regresses.
        assert_eq!(u.seal(1), 5);
        assert_eq!(u.epoch(), 3, "seal(1) must not unseal epoch 3");
    }

    #[test]
    fn stale_epoch_ops_after_seal_return_the_typed_error() {
        let mut u = LogUnit::new(1 << 10);
        u.write(0, 0, b"pre", Ns::ZERO).unwrap();
        u.seal(2);
        // Every op class carries the epoch and is fenced identically.
        assert!(matches!(
            u.write(1, 9, b"stale", Ns::ZERO),
            Err(CorfuError::SealedEpoch { have: 1, need: 2 })
        ));
        assert!(matches!(
            u.read(0, 0, Ns::ZERO),
            Err(CorfuError::SealedEpoch { have: 0, need: 2 })
        ));
        assert!(matches!(
            u.fill(1, 9, Ns::ZERO),
            Err(CorfuError::SealedEpoch { have: 1, need: 2 })
        ));
        // The current epoch still works.
        assert!(u.read(2, 0, Ns::ZERO).is_ok());
    }

    #[test]
    fn sequencer_never_hands_out_a_token_below_the_recovered_tail() {
        // Tokens 8 and 9 are handed out but never written: the sealed
        // units only know about positions 0..8, so a naive recovery
        // would reset the sequencer to 8 and hand out 8 again — the
        // double assignment that loses data. reset_to is monotonic.
        let mut l = log();
        for _ in 0..8 {
            l.append(b"x", Ns::ZERO).unwrap();
        }
        let t8 = l.sequencer.next_token();
        let t9 = l.sequencer.next_token();
        assert_eq!((t8, t9), (8, 9));
        l.reconfigure();
        assert_eq!(
            l.tail(),
            10,
            "recovered tail must not regress past handed-out tokens"
        );
        let (pos, _) = l.append(b"post", Ns::ZERO).unwrap();
        assert_eq!(pos, 10, "no token below the recovered tail");
        // A genuinely fresh sequencer is still raised to the sealed tail.
        l.sequencer = Sequencer::new();
        l.reconfigure();
        assert!(l.tail() >= 10);
    }

    #[test]
    fn oversized_entries_rejected() {
        let mut l = log();
        let big = vec![0u8; BLOCK as usize];
        assert!(matches!(
            l.append(&big, Ns::ZERO),
            Err(CorfuError::TooLarge(_))
        ));
    }

    /// An entry fills its page up to the 12-byte header, and one byte more
    /// is refused before the sequencer hands out a token: the tail stays
    /// put, and the next append takes the position the refused one would
    /// have had, so no hole is left behind.
    #[test]
    fn the_largest_entry_fits_and_a_refused_one_takes_no_position() {
        let mut l = log();
        let fits: Vec<u8> = (0..BLOCK as usize - 12).map(|i| i as u8).collect();
        assert_eq!(fits.len(), 4_084);
        let (pos, t) = l.append(&fits, Ns::ZERO).unwrap();
        assert_eq!(pos, 0);
        let (e, t) = l.read(pos, t).unwrap();
        assert_eq!(e, LogEntry::Data(Bytes::from(fits.clone())));
        let too_big = vec![7u8; fits.len() + 1];
        assert_eq!(
            l.append(&too_big, t).unwrap_err(),
            CorfuError::TooLarge(4_085)
        );
        assert_eq!(l.tail(), 1, "a refused append takes no token");
        let (pos, _) = l.append(b"next", t).unwrap();
        assert_eq!(pos, 1);
        assert!(matches!(
            l.unit_mut(0).write(0, 9, &too_big, t),
            Err(CorfuError::TooLarge(4_085))
        ));
    }

    #[test]
    fn replication_survives_a_unit_failure() {
        let mut l = CorfuLog::new_replicated(4, 1 << 14, 2);
        let mut t = Ns::ZERO;
        for i in 0..12u64 {
            let (pos, done) = l.append(format!("r{i}").as_bytes(), t).unwrap();
            assert_eq!(pos, i);
            t = done;
        }
        // Fail a unit: every entry stays readable from its backup.
        l.fail_unit(1);
        for i in 0..12u64 {
            let (e, done) = l.read(i, t).unwrap();
            t = done;
            assert_eq!(e, LogEntry::Data(Bytes::from(format!("r{i}"))));
        }
    }

    #[test]
    fn unreplicated_entries_on_failed_units_are_lost() {
        let mut l = log(); // replication = 1
        let mut t = Ns::ZERO;
        for _ in 0..8 {
            let (_, done) = l.append(b"x", t).unwrap();
            t = done;
        }
        l.fail_unit(2);
        // Position 2 lived only on unit 2.
        assert!(matches!(l.read(2, t), Err(CorfuError::UnitFailed(2))));
        // Other positions unaffected.
        assert!(l.read(1, t).is_ok());
    }

    #[test]
    fn failure_reconfiguration_installs_a_new_projection() {
        let mut l = CorfuLog::new_replicated(4, 1 << 14, 2);
        let mut t = Ns::ZERO;
        for _ in 0..8 {
            let (_, done) = l.append(b"pre", t).unwrap();
            t = done;
        }
        l.fail_unit(0);
        // Appends whose chain touches the failed unit are fenced until
        // reconfiguration.
        let mut fenced = false;
        for _ in 0..4 {
            match l.append(b"mid", t) {
                Err(CorfuError::UnitFailed(0)) => {
                    fenced = true;
                    break;
                }
                Ok((_, done)) => t = done,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(fenced, "a chain through unit 0 must be fenced");
        let epoch = l.reconfigure();
        assert_eq!(epoch, 1);
        assert_eq!(l.current_projection().unit_ids, vec![1, 2, 3]);
        // New appends stripe over the survivors and read back fine.
        let (pos, done) = l.append(b"post", t).unwrap();
        t = done;
        let (e, _) = l.read(pos, t).unwrap();
        assert_eq!(e, LogEntry::Data(Bytes::from_static(b"post")));
        // Old (pre-failure) positions still resolve through the old
        // projection and their surviving replicas.
        let (e, _) = l.read(0, t).unwrap();
        assert_eq!(e, LogEntry::Data(Bytes::from_static(b"pre")));
    }

    #[test]
    fn chain_write_durability_is_after_both_replicas() {
        let mut single = CorfuLog::new_replicated(2, 1 << 14, 1);
        let mut double = CorfuLog::new_replicated(2, 1 << 14, 2);
        let (_, t1) = single.append(b"x", Ns::ZERO).unwrap();
        let (_, t2) = double.append(b"x", Ns::ZERO).unwrap();
        assert!(t2 > t1, "chain of 2 must take longer: {t1} vs {t2}");
    }

    #[test]
    #[should_panic(expected = "not enough live units")]
    fn reconfigure_requires_replication_many_survivors() {
        let mut l = CorfuLog::new_replicated(2, 1 << 14, 2);
        l.fail_unit(0);
        l.reconfigure();
    }

    #[test]
    fn fail_over_repairs_onto_a_spare_and_loses_nothing() {
        let mut l = CorfuLog::new_replicated(3, 1 << 14, 2);
        let spare = l.add_spare_unit(1 << 14);
        let mut t = Ns::ZERO;
        for i in 0..30u64 {
            let (_, done) = l.append(format!("d{i}").as_bytes(), t).unwrap();
            t = done;
        }
        let report = l.fail_over(1, t).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.replacement, Some(spare));
        assert_eq!(report.lost_positions, 0, "replication 2 must lose nothing");
        // Unit 1 was primary or backup for 2/3 of the positions.
        assert_eq!(report.repaired_positions, 20);
        assert!(report.done > t, "repair traffic takes time");
        // Every committed position still reads back, full replication
        // restored: the spare answers for the dead unit's stripe role.
        let mut t = report.done;
        for i in 0..30u64 {
            let (e, done) = l.read(i, t).unwrap();
            t = done;
            assert_eq!(e, LogEntry::Data(Bytes::from(format!("d{i}"))));
        }
        // New appends stripe over the repaired set and survive failing
        // *another* original unit (replication is genuinely back to 2).
        let (pos, done) = l.append(b"post", t).unwrap();
        assert_eq!(pos, 30);
        t = done;
        l.fail_unit(2);
        for i in 0..31u64 {
            match l.read(i, t) {
                Ok((_, done)) => t = done,
                Err(e) => panic!("position {i} lost after second failure: {e}"),
            }
        }
    }

    #[test]
    fn fail_over_fences_the_zombie_unit() {
        let mut l = CorfuLog::new_replicated(3, 1 << 14, 2);
        l.add_spare_unit(1 << 14);
        let mut t = Ns::ZERO;
        for _ in 0..6 {
            let (_, done) = l.append(b"x", t).unwrap();
            t = done;
        }
        let report = l.fail_over(0, t).unwrap();
        // The "dead" unit 0 was actually partitioned: it still holds the
        // old epoch and tries to write. Every *surviving* unit is sealed
        // into the new epoch, so its late replication traffic bounces.
        let stale = l.unit_mut(1).write(0, 100, b"zombie", Ns::ZERO);
        assert!(
            matches!(stale, Err(CorfuError::SealedEpoch { have: 0, need: 1 })),
            "zombie write must be rejected: {stale:?}"
        );
        // Its own unit never sealed — writes there succeed but serve no
        // projection: reads after failover never consult unit 0.
        assert_eq!(l.unit_mut(0).epoch(), 0);
        let mut t = report.done;
        for i in 0..6u64 {
            let chain = l.replicas_of(i);
            assert!(!chain.contains(&0), "projection must exclude the zombie");
            let (_, done) = l.read(i, t).unwrap();
            t = done;
        }
    }

    #[test]
    fn fail_over_without_spares_falls_back_to_survivors() {
        let mut l = CorfuLog::new_replicated(4, 1 << 14, 2);
        let mut t = Ns::ZERO;
        for _ in 0..8 {
            let (_, done) = l.append(b"x", t).unwrap();
            t = done;
        }
        let report = l.fail_over(3, t).unwrap();
        assert_eq!(report.replacement, None);
        assert_eq!(report.repaired_positions, 0);
        assert_eq!(l.current_projection().unit_ids, vec![0, 1, 2]);
        // Replication-2 data on the survivors still reads.
        for i in 0..8u64 {
            l.read(i, report.done).unwrap();
        }
    }

    #[test]
    fn fail_over_refuses_when_replication_cannot_be_met() {
        let mut l = CorfuLog::new_replicated(2, 1 << 14, 2);
        l.append(b"x", Ns::ZERO).unwrap();
        let r = l.fail_over(0, Ns::ZERO);
        assert!(
            matches!(r, Err(CorfuError::Insufficient { live: 1, need: 2 })),
            "typed refusal, not a panic: {r:?}"
        );
    }

    #[test]
    fn fail_over_with_replication_one_reports_loss_and_fills_junk() {
        let mut l = CorfuLog::new(4, 1 << 14); // replication 1
        l.add_spare_unit(1 << 14);
        let mut t = Ns::ZERO;
        for _ in 0..8 {
            let (_, done) = l.append(b"only-copy", t).unwrap();
            t = done;
        }
        // Positions 2 and 6 lived only on unit 2.
        let report = l.fail_over(2, t).unwrap();
        assert_eq!(report.lost_positions, 2);
        let (e, _) = l.read(2, report.done).unwrap();
        assert_eq!(e, LogEntry::Junk, "lost positions read as junk, not hangs");
        let (e, _) = l.read(1, report.done).unwrap();
        assert_eq!(e, LogEntry::Data(Bytes::from_static(b"only-copy")));
    }

    #[test]
    fn appends_to_different_units_proceed_in_parallel() {
        let mut l = log();
        // Two appends at the same instant land on different units, so
        // their flash programs overlap.
        let (_, t1) = l.append(b"a", Ns::ZERO).unwrap();
        let (_, t2) = l.append(b"b", Ns::ZERO).unwrap();
        assert_eq!(t1, t2, "stripe parallelism: {t1} vs {t2}");
    }
}
