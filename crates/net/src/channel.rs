//! IEEE 802.15.4 channels and the TSCH channel-hopping map.

use crate::NetError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// First channel of the IEEE 802.15.4 2.4 GHz band.
pub const FIRST_CHANNEL: u8 = 11;
/// Last channel of the IEEE 802.15.4 2.4 GHz band.
pub const LAST_CHANNEL: u8 = 26;
/// Number of channels in the 2.4 GHz band (TSCH can use up to 16).
pub const BAND_SIZE: usize = (LAST_CHANNEL - FIRST_CHANNEL + 1) as usize;

/// An IEEE 802.15.4 2.4 GHz channel number (11..=26).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(u8);

impl ChannelId {
    /// Creates a channel id, validating it lies within the 2.4 GHz band.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidChannel`] if `number` is outside `11..=26`.
    pub fn new(number: u8) -> Result<Self, NetError> {
        if (FIRST_CHANNEL..=LAST_CHANNEL).contains(&number) {
            Ok(ChannelId(number))
        } else {
            Err(NetError::InvalidChannel(number))
        }
    }

    /// The raw IEEE channel number (11..=26).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Dense index of this channel within the band: channel 11 maps to 0.
    pub fn band_index(self) -> usize {
        usize::from(self.0 - FIRST_CHANNEL)
    }

    /// Center frequency of this channel in MHz (2405 + 5·(k − 11)).
    pub fn frequency_mhz(self) -> f64 {
        2405.0 + 5.0 * f64::from(self.0 - FIRST_CHANNEL)
    }

    /// An inclusive, ordered channel range, e.g. `ChannelId::range(11, 14)`
    /// for the four channels used in the paper's reliability experiments.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidChannelRange`] if the range is empty or
    /// reaches outside the band.
    pub fn range(first: u8, last: u8) -> Result<ChannelSet, NetError> {
        if first > last || first < FIRST_CHANNEL || last > LAST_CHANNEL {
            return Err(NetError::InvalidChannelRange { first, last });
        }
        Ok(ChannelSet::new((first..=last).map(ChannelId)))
    }

    /// All 16 channels of the band, in order.
    pub fn all() -> ChannelSet {
        ChannelSet::new((FIRST_CHANNEL..=LAST_CHANNEL).map(ChannelId))
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// An ordered set of channels in use by the network.
///
/// The order matters: it is the logical-to-physical channel mapping table
/// shared by all devices. With `m` channels in the set, a transmission with
/// channel offset `c` in the slot with absolute slot number `asn` uses
/// physical channel `set[(asn + c) mod m]` — the TSCH hopping formula from
/// §III-B of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChannelSet {
    channels: Vec<ChannelId>,
}

impl ChannelSet {
    /// Builds a channel set from an ordered iterator of channels,
    /// removing duplicates while preserving first-seen order.
    pub fn new<I: IntoIterator<Item = ChannelId>>(channels: I) -> Self {
        let mut out = Vec::new();
        for c in channels {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        ChannelSet { channels: out }
    }

    /// Number of channels `|M|` in the set.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The channels in mapping-table order.
    pub fn iter(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.channels.iter().copied()
    }

    /// Returns the channel at mapping-table position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn at(&self, i: usize) -> ChannelId {
        self.channels[i]
    }

    /// Whether `channel` belongs to the set.
    pub fn contains(&self, channel: ChannelId) -> bool {
        self.channels.contains(&channel)
    }

    /// The physical channel used by channel offset `offset` in the slot with
    /// absolute slot number `asn`:
    /// `logicalChannel = (ASN + channelOffset) mod |M|`.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn physical(&self, asn: u64, offset: usize) -> ChannelId {
        self.channels[self.physical_index(asn, offset)]
    }

    /// The mapping-table position of [`ChannelSet::physical`]'s channel,
    /// for tables indexed by channel-set position.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn physical_index(&self, asn: u64, offset: usize) -> usize {
        assert!(!self.channels.is_empty(), "channel set is empty");
        let m = self.channels.len() as u64;
        ((asn + offset as u64) % m) as usize
    }

    /// Restricts the set to its first `m` channels (the "use m channels"
    /// sweeps in the paper's evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the set size or is zero.
    pub fn take(&self, m: usize) -> ChannelSet {
        assert!(
            m >= 1 && m <= self.channels.len(),
            "cannot take {m} channels from a set of {}",
            self.channels.len()
        );
        ChannelSet { channels: self.channels[..m].to_vec() }
    }
}

impl FromIterator<ChannelId> for ChannelSet {
    fn from_iter<I: IntoIterator<Item = ChannelId>>(iter: I) -> Self {
        ChannelSet::new(iter)
    }
}

impl<'a> IntoIterator for &'a ChannelSet {
    type Item = ChannelId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ChannelId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.channels.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_validation() {
        assert!(ChannelId::new(11).is_ok());
        assert!(ChannelId::new(26).is_ok());
        assert_eq!(ChannelId::new(10), Err(NetError::InvalidChannel(10)));
        assert_eq!(ChannelId::new(27), Err(NetError::InvalidChannel(27)));
    }

    #[test]
    fn band_index_and_frequency() {
        let c11 = ChannelId::new(11).unwrap();
        let c26 = ChannelId::new(26).unwrap();
        assert_eq!(c11.band_index(), 0);
        assert_eq!(c26.band_index(), 15);
        assert!((c11.frequency_mhz() - 2405.0).abs() < 1e-9);
        assert!((c26.frequency_mhz() - 2480.0).abs() < 1e-9);
    }

    #[test]
    fn range_builds_ordered_set() {
        let set = ChannelId::range(11, 14).unwrap();
        assert_eq!(set.len(), 4);
        let nums: Vec<u8> = set.iter().map(ChannelId::number).collect();
        assert_eq!(nums, vec![11, 12, 13, 14]);
    }

    #[test]
    fn range_rejects_inverted_and_out_of_band() {
        assert!(ChannelId::range(14, 11).is_err());
        assert!(ChannelId::range(9, 12).is_err());
        assert!(ChannelId::range(20, 30).is_err());
    }

    #[test]
    fn all_has_sixteen_channels() {
        assert_eq!(ChannelId::all().len(), BAND_SIZE);
        assert_eq!(BAND_SIZE, 16);
    }

    #[test]
    fn hopping_formula_matches_standard() {
        let set = ChannelId::range(11, 14).unwrap(); // m = 4
                                                     // (ASN + offset) mod 4 indexes the mapping table.
        assert_eq!(set.physical(0, 0).number(), 11);
        assert_eq!(set.physical(0, 3).number(), 14);
        assert_eq!(set.physical(1, 3).number(), 11); // (1+3)%4 = 0
        assert_eq!(set.physical(7, 2).number(), 12); // (7+2)%4 = 1
    }

    #[test]
    fn hopping_cycles_all_channels_for_fixed_offset() {
        let set = ChannelId::range(11, 16).unwrap();
        let mut seen: Vec<u8> =
            (0..set.len()).map(|asn| set.physical(asn as u64, 2).number()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn set_dedups_preserving_order() {
        let c = |n| ChannelId::new(n).unwrap();
        let set = ChannelSet::new([c(15), c(11), c(15), c(12)]);
        let nums: Vec<u8> = set.iter().map(ChannelId::number).collect();
        assert_eq!(nums, vec![15, 11, 12]);
    }

    #[test]
    fn take_prefix() {
        let set = ChannelId::range(11, 18).unwrap();
        let three = set.take(3);
        let nums: Vec<u8> = three.iter().map(ChannelId::number).collect();
        assert_eq!(nums, vec![11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn take_more_than_available_panics() {
        let set = ChannelId::range(11, 12).unwrap();
        let _ = set.take(5);
    }
}
