//! Hash-function addressing scheme (ADRS).
//!
//! Every tweakable-hash call in SPHINCS+ is domain-separated by a 32-byte
//! address describing *where* in the structure the hash sits. The layout
//! follows the SPHINCS+ round-3 specification (§2.7.3): eight big-endian
//! 32-bit words.
//!
//! ```
//! use hero_sphincs::address::{Address, AddressType};
//! let mut a = Address::new();
//! a.set_layer(3);
//! a.set_tree(0x1234);
//! a.set_type(AddressType::WotsHash);
//! a.set_keypair(7);
//! a.set_chain(11);
//! a.set_hash(2);
//! assert_eq!(a.layer(), 3);
//! ```

/// The seven address types of the SPHINCS+ specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum AddressType {
    /// A hash inside a WOTS+ chain.
    WotsHash = 0,
    /// Compression of a WOTS+ public key.
    WotsPk = 1,
    /// A node of a hypertree Merkle tree.
    Tree = 2,
    /// A node of a FORS tree.
    ForsTree = 3,
    /// Compression of the FORS tree roots.
    ForsRoots = 4,
    /// WOTS+ secret-key generation (PRF).
    WotsPrf = 5,
    /// FORS secret-key generation (PRF).
    ForsPrf = 6,
}

/// Word indices within the 8-word address.
const LAYER: usize = 0;
const TREE_HI: usize = 1;
const TREE_MID: usize = 2;
const TREE_LO: usize = 3;
const TYPE: usize = 4;
const KEYPAIR: usize = 5;
const CHAIN_OR_HEIGHT: usize = 6;
const HASH_OR_INDEX: usize = 7;

/// A 32-byte hash address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Address {
    words: [u32; 8],
}

impl Address {
    /// Creates an all-zero address.
    pub const fn new() -> Self {
        Self { words: [0; 8] }
    }

    /// The address as bytes (big-endian words), as absorbed by the hashes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, w) in self.words.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Hypertree layer (0 = bottom).
    pub fn layer(&self) -> u32 {
        self.words[LAYER]
    }

    /// Sets the hypertree layer.
    pub fn set_layer(&mut self, layer: u32) {
        self.words[LAYER] = layer;
    }

    /// Sets the 96-bit tree index (we carry 64 bits, the maximum any
    /// built-in parameter set needs).
    pub fn set_tree(&mut self, tree: u64) {
        self.words[TREE_HI] = 0;
        self.words[TREE_MID] = (tree >> 32) as u32;
        self.words[TREE_LO] = tree as u32;
    }

    /// Tree index (lower 64 bits).
    pub fn tree(&self) -> u64 {
        ((self.words[TREE_MID] as u64) << 32) | self.words[TREE_LO] as u64
    }

    /// Sets the address type, zeroing the type-specific trailer words as
    /// the specification requires.
    pub fn set_type(&mut self, ty: AddressType) {
        self.words[TYPE] = ty as u32;
        self.words[KEYPAIR] = 0;
        self.words[CHAIN_OR_HEIGHT] = 0;
        self.words[HASH_OR_INDEX] = 0;
    }

    /// Address type, if the stored discriminant is valid.
    pub fn address_type(&self) -> Option<AddressType> {
        Some(match self.words[TYPE] {
            0 => AddressType::WotsHash,
            1 => AddressType::WotsPk,
            2 => AddressType::Tree,
            3 => AddressType::ForsTree,
            4 => AddressType::ForsRoots,
            5 => AddressType::WotsPrf,
            6 => AddressType::ForsPrf,
            _ => return None,
        })
    }

    /// Sets the key pair index (leaf index within the subtree).
    pub fn set_keypair(&mut self, keypair: u32) {
        self.words[KEYPAIR] = keypair;
    }

    /// Key pair index.
    pub fn keypair(&self) -> u32 {
        self.words[KEYPAIR]
    }

    /// Sets the WOTS+ chain index.
    pub fn set_chain(&mut self, chain: u32) {
        self.words[CHAIN_OR_HEIGHT] = chain;
    }

    /// WOTS+ chain index.
    pub fn chain(&self) -> u32 {
        self.words[CHAIN_OR_HEIGHT]
    }

    /// Sets the WOTS+ hash index within a chain.
    pub fn set_hash(&mut self, hash: u32) {
        self.words[HASH_OR_INDEX] = hash;
    }

    /// Sets the tree height field (Merkle node level; leaves are 0).
    pub fn set_tree_height(&mut self, height: u32) {
        self.words[CHAIN_OR_HEIGHT] = height;
    }

    /// Tree height field.
    pub fn tree_height(&self) -> u32 {
        self.words[CHAIN_OR_HEIGHT]
    }

    /// Sets the tree index field (Merkle node index within its level).
    pub fn set_tree_index(&mut self, index: u32) {
        self.words[HASH_OR_INDEX] = index;
    }

    /// Tree index field.
    pub fn tree_index(&self) -> u32 {
        self.words[HASH_OR_INDEX]
    }

    /// The compressed 22-byte address used by the SHA-256 instantiation
    /// (spec §7.2.2): 1-byte layer, 8-byte tree, 1-byte type, then the
    /// three trailer words. Compression keeps every `F`/`PRF` call within
    /// a single SHA-256 block, which is what lets the GPU kernels charge
    /// one compression per chain step.
    pub fn to_compressed_bytes(self) -> [u8; 22] {
        let mut out = [0u8; 22];
        out[0] = self.words[LAYER] as u8;
        out[1..9].copy_from_slice(&self.tree().to_be_bytes());
        out[9] = self.words[TYPE] as u8;
        out[10..14].copy_from_slice(&self.words[KEYPAIR].to_be_bytes());
        out[14..18].copy_from_slice(&self.words[CHAIN_OR_HEIGHT].to_be_bytes());
        out[18..22].copy_from_slice(&self.words[HASH_OR_INDEX].to_be_bytes());
        out
    }

    /// Bytes `0..20` of [`Address::to_compressed_bytes`] as big-endian
    /// words, the last field taken as zero: what the lane-resident
    /// SHA-256 bodies hold an address as. The type sits in the second
    /// byte of word 2, the key pair across words 2 and 3, the chain index
    /// or tree height across words 3 and 4.
    #[cfg(any(target_arch = "x86_64", test))]
    pub(crate) fn compressed_words(&self) -> [u32; 5] {
        let tree = self.tree();
        [
            self.words[LAYER] << 24 | (tree >> 40) as u32,
            (tree >> 8) as u32,
            (tree as u32) << 24 | (self.words[TYPE] & 0xff) << 16 | self.words[KEYPAIR] >> 16,
            self.words[KEYPAIR] << 16 | self.words[CHAIN_OR_HEIGHT] >> 16,
            self.words[CHAIN_OR_HEIGHT] << 16,
        ]
    }

    /// Copies the subtree coordinates (layer + tree) from `other`,
    /// the common pattern when deriving leaf addresses from a tree address.
    pub fn copy_subtree_from(&mut self, other: &Address) {
        self.words[LAYER] = other.words[LAYER];
        self.words[TREE_HI] = other.words[TREE_HI];
        self.words[TREE_MID] = other.words[TREE_MID];
        self.words[TREE_LO] = other.words[TREE_LO];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fields() {
        let mut a = Address::new();
        a.set_layer(5);
        a.set_tree(0xdead_beef_cafe);
        a.set_type(AddressType::ForsTree);
        a.set_keypair(42);
        a.set_tree_height(3);
        a.set_tree_index(1000);
        assert_eq!(a.layer(), 5);
        assert_eq!(a.tree(), 0xdead_beef_cafe);
        assert_eq!(a.address_type(), Some(AddressType::ForsTree));
        assert_eq!(a.keypair(), 42);
        assert_eq!(a.tree_height(), 3);
        assert_eq!(a.tree_index(), 1000);
    }

    #[test]
    fn set_type_clears_trailer() {
        let mut a = Address::new();
        a.set_keypair(9);
        a.set_chain(4);
        a.set_hash(2);
        a.set_type(AddressType::Tree);
        assert_eq!(a.keypair(), 0);
        assert_eq!(a.tree_height(), 0);
        assert_eq!(a.tree_index(), 0);
    }

    #[test]
    fn distinct_addresses_have_distinct_bytes() {
        let mut a = Address::new();
        let mut b = Address::new();
        a.set_type(AddressType::WotsHash);
        b.set_type(AddressType::WotsPrf);
        assert_ne!(a.to_bytes(), b.to_bytes());

        let mut c = a;
        c.set_hash(1);
        assert_ne!(a.to_bytes(), c.to_bytes());
    }

    #[test]
    fn bytes_are_big_endian_words() {
        let mut a = Address::new();
        a.set_layer(0x0102_0304);
        let bytes = a.to_bytes();
        assert_eq!(&bytes[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn compressed_words_are_the_compressed_bytes_before_the_last_field() {
        let mut a = Address::new();
        for (layer, tree, ty, keypair, chain) in [
            (0, 0, AddressType::WotsHash, 0, 0),
            (
                21,
                (1 << 63) - 1,
                AddressType::WotsPrf,
                u32::MAX,
                0x0102_0304,
            ),
            (0x1ff, 0x0123_4567_89ab_cdef, AddressType::ForsTree, 7, 66),
        ] {
            a.set_layer(layer);
            a.set_tree(tree);
            a.set_type(ty);
            a.set_keypair(keypair);
            a.set_chain(chain);
            let bytes = a.to_compressed_bytes();
            a.set_hash(0xdead_beef);
            for (i, word) in a.compressed_words().into_iter().enumerate() {
                assert_eq!(word.to_be_bytes(), bytes[4 * i..][..4], "word {i}");
            }
        }
    }

    #[test]
    fn copy_subtree_copies_only_coordinates() {
        let mut src = Address::new();
        src.set_layer(2);
        src.set_tree(77);
        src.set_keypair(5);
        let mut dst = Address::new();
        dst.set_keypair(9);
        dst.copy_subtree_from(&src);
        assert_eq!(dst.layer(), 2);
        assert_eq!(dst.tree(), 77);
        assert_eq!(dst.keypair(), 9, "trailer must be untouched");
    }

    #[test]
    fn invalid_type_discriminant() {
        let mut a = Address::new();
        a.words[TYPE] = 99;
        assert_eq!(a.address_type(), None);
    }
}
