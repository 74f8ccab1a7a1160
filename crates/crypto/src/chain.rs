//! Signature chains, the authentication structure of the Dolev–Strong
//! synchronous agreement protocol.
//!
//! In round `r` of Dolev–Strong, a correct node accepts a value only if it
//! arrives with a chain of `r` signatures from `r` *distinct* nodes, the
//! first of which is the designated sender. Before relaying, the node appends
//! its own signature.

use crate::digest::Digest;
use crate::keys::{KeyRegistry, NodeSigner, Signature};
use atum_types::{NodeId, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use sha2::{Digest as _, Sha256};

/// A chain of signatures over a common payload digest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SignatureChain {
    payload: Digest,
    links: Vec<(NodeId, Signature)>,
}

impl SignatureChain {
    /// Starts a new chain over `payload` signed by `signer` (the designated
    /// sender in Dolev–Strong).
    pub fn new(payload: Digest, signer: &NodeSigner) -> Self {
        let mut chain = SignatureChain {
            payload,
            links: Vec::new(),
        };
        chain.append(signer);
        chain
    }

    /// Creates an empty chain over `payload` (no signatures yet). Useful for
    /// constructing test vectors and for protocols that add the first
    /// signature separately.
    pub fn unsigned(payload: Digest) -> Self {
        SignatureChain {
            payload,
            links: Vec::new(),
        }
    }

    /// The digest the chain signs.
    pub fn payload(&self) -> &Digest {
        &self.payload
    }

    /// The signer identities in chain order.
    pub fn signers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.links.iter().map(|(n, _)| *n)
    }

    /// Number of links in the chain.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` when the chain carries no signatures.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Appends a signature by `signer` over the payload and the chain so far,
    /// so links cannot be reordered or truncated undetectably in the middle.
    pub fn append(&mut self, signer: &NodeSigner) {
        let binding = self.bindings().last().expect("the payload is bound");
        let sig = signer.sign_digest(&binding);
        self.links.push((signer.node(), sig));
    }

    /// `true` if `node` already appears in the chain.
    pub fn contains(&self, node: NodeId) -> bool {
        self.links.iter().any(|(n, _)| *n == node)
    }

    /// The links (signer, signature) in chain order.
    pub fn links(&self) -> &[(NodeId, Signature)] {
        &self.links
    }

    /// Reassembles a chain from its parts (wire decoding). The result is
    /// *unverified*: receivers must still run the protocol's verification
    /// against the key registry, exactly as they do for simulator-delivered
    /// chains.
    pub fn from_parts(payload: Digest, links: Vec<(NodeId, Signature)>) -> Self {
        SignatureChain { payload, links }
    }

    /// What each link signs, in chain order, then what the next link will
    /// sign: the payload and every link before it, hashed as one stream.
    fn bindings(&self) -> impl Iterator<Item = Digest> + '_ {
        let mut stream = Sha256::new();
        stream.update(self.payload.as_bytes());
        let first = Digest::from_bytes(stream.clone().finalize());
        std::iter::once(first).chain(self.links.iter().map(move |(node, sig)| {
            stream.update(node.raw().to_be_bytes());
            stream.update(sig.digest().as_bytes());
            Digest::from_bytes(stream.clone().finalize())
        }))
    }

    /// Verifies the whole chain: every signature checks out against the
    /// registry, and — if `require_distinct` — no node signed twice.
    ///
    /// `expected_first` pins the designated sender (Dolev–Strong requires the
    /// chain to start with the broadcast's source).
    pub fn verify(
        &self,
        registry: &KeyRegistry,
        expected_first: Option<NodeId>,
        require_distinct: bool,
    ) -> bool {
        if self.links.is_empty() {
            return false;
        }
        if let Some(first) = expected_first {
            if self.links[0].0 != first {
                return false;
            }
        }
        if require_distinct {
            let mut seen: Vec<NodeId> = self.links.iter().map(|(n, _)| *n).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            if seen.len() != before {
                return false;
            }
        }
        self.links
            .iter()
            .zip(self.bindings())
            .all(|((node, sig), signed)| registry.verify_digest(*node, &signed, sig))
    }
}

impl WireEncode for SignatureChain {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        self.payload.wire_encode(w);
        w.put_seq(&self.links);
    }
}

impl WireDecode for SignatureChain {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let payload = Digest::wire_decode(r)?;
        // Each link is a NodeId (8) + a 32-byte signature tag.
        let links = r.take_seq(40)?;
        Ok(SignatureChain::from_parts(payload, links))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u64) -> (KeyRegistry, Vec<NodeSigner>) {
        let mut reg = KeyRegistry::new();
        for i in 0..n {
            reg.register(NodeId::new(i), 99);
        }
        let signers = (0..n)
            .map(|i| reg.signer(NodeId::new(i)).unwrap())
            .collect();
        (reg, signers)
    }

    #[test]
    fn binding_digests_equal_the_concatenated_parts() {
        let (reg, signers) = setup(4);
        let payload = Digest::of(b"v");
        let mut chain = SignatureChain::new(payload, &signers[0]);
        for signer in &signers[1..] {
            chain.append(signer);
        }
        let bindings: Vec<Digest> = chain.bindings().collect();
        assert_eq!(bindings.len(), 5);
        for (end, binding) in bindings.iter().enumerate() {
            let prefix = &chain.links()[..end];
            let ids: Vec<[u8; 8]> = prefix.iter().map(|(n, _)| n.raw().to_be_bytes()).collect();
            let mut parts: Vec<&[u8]> = vec![payload.as_bytes()];
            for ((_, sig), id) in prefix.iter().zip(&ids) {
                parts.push(id);
                parts.push(sig.digest().as_bytes());
            }
            assert_eq!(*binding, Digest::of_parts(&parts), "{end} links");
            if let Some((node, sig)) = chain.links().get(end) {
                assert!(reg.verify_digest(*node, binding, sig), "link {end}");
            }
        }
    }

    #[test]
    fn single_link_chain_verifies() {
        let (reg, signers) = setup(2);
        let chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        assert_eq!(chain.len(), 1);
        assert!(chain.verify(&reg, Some(NodeId::new(0)), true));
        assert!(!chain.verify(&reg, Some(NodeId::new(1)), true));
    }

    #[test]
    fn multi_link_chain_verifies_in_order() {
        let (reg, signers) = setup(4);
        let mut chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        chain.append(&signers[1]);
        chain.append(&signers[2]);
        chain.append(&signers[3]);
        assert_eq!(chain.len(), 4);
        assert!(chain.verify(&reg, Some(NodeId::new(0)), true));
        let order: Vec<u64> = chain.signers().map(|n| n.raw()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_signer_rejected_when_distinct_required() {
        let (reg, signers) = setup(2);
        let mut chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        chain.append(&signers[1]);
        chain.append(&signers[0]);
        assert!(!chain.verify(&reg, Some(NodeId::new(0)), true));
        assert!(chain.verify(&reg, Some(NodeId::new(0)), false));
    }

    #[test]
    fn tampered_payload_fails() {
        let (reg, signers) = setup(2);
        let mut chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        chain.append(&signers[1]);
        let mut tampered = chain.clone();
        tampered.payload = Digest::of(b"forged");
        assert!(!tampered.verify(&reg, Some(NodeId::new(0)), true));
    }

    #[test]
    fn truncated_or_reordered_chain_fails() {
        let (reg, signers) = setup(3);
        let mut chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        chain.append(&signers[1]);
        chain.append(&signers[2]);

        // Reorder links 1 and 2.
        let mut reordered = chain.clone();
        reordered.links.swap(1, 2);
        assert!(!reordered.verify(&reg, Some(NodeId::new(0)), true));

        // Truncation from the tail still verifies (prefixes are valid
        // chains); truncation in the middle must not.
        let mut holed = chain.clone();
        holed.links.remove(1);
        assert!(!holed.verify(&reg, Some(NodeId::new(0)), true));
    }

    #[test]
    fn unknown_signer_fails() {
        let (reg, signers) = setup(2);
        let mut other_reg = KeyRegistry::new();
        other_reg.register(NodeId::new(9), 1);
        let outsider = other_reg.signer(NodeId::new(9)).unwrap();
        let mut chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        chain.append(&outsider);
        assert!(!chain.verify(&reg, Some(NodeId::new(0)), true));
        drop(signers);
    }

    #[test]
    fn empty_chain_never_verifies() {
        let (reg, _) = setup(1);
        let chain = SignatureChain::unsigned(Digest::of(b"v"));
        assert!(chain.is_empty());
        assert!(!chain.verify(&reg, None, true));
    }

    #[test]
    fn contains_reports_membership() {
        let (_, signers) = setup(2);
        let chain = SignatureChain::new(Digest::of(b"v"), &signers[0]);
        assert!(chain.contains(NodeId::new(0)));
        assert!(!chain.contains(NodeId::new(1)));
    }
}
