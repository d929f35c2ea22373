"""Sealed key halves: public-only key objects for remote parties.

The mirrored choreography (:mod:`repro.runtime.mirror`) executes *both*
parties' steps in each process, but only the frames computed by the
data's owner ever reach the wire -- the remote side's sends are
discarded unserialized.  Until PR 8 that discard was coincidental with
respect to key material: every process derived every party's full
keypair from the manifest ``key_seed``, so a compromised process held
usable private keys it had no business holding.

This module makes the discard *structural*.  A remote party's context
carries a :class:`SealedPaillierPrivateKey` (or
:class:`SealedRsaPrivateKey`): an object with the public half and an
owner tag but **no secret fields at all** -- there is nothing to steal
-- and every decrypt/sign entry point raises
:class:`PublicOnlyKeyError`.  The sanctioned discard boundaries
(:meth:`repro.crypto.engine.ModexpEngine.decrypt_raw_batch` and
:func:`decrypt_or_discard`) substitute placeholder zeros for sealed
decrypts, and :meth:`~repro.crypto.engine.ModexpEngine.zero_test_batch`
answers "is zero" as those zeros would; everything downstream feeds
only frames the mirror discards, which the bit-identical equivalence
bar proves on every run.

Public keys for sealed contexts are captured from the authentic wire
exchange at session start and cross-checked against the manifest's
per-party public-key digests (:func:`paillier_public_digest`), so a
party never trusts a peer key it cannot verify against the run's
trusted setup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPublicKey,
)
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey


class PublicOnlyKeyError(RuntimeError):
    """A decrypt/sign was attempted on a sealed (public-only) key.

    Raised by every secret-consuming method of the sealed key classes.
    Reaching this error means a code path tried to use a remote party's
    private key outside the sanctioned discard boundaries -- always a
    bug in the choreography or a privacy violation, never recoverable.
    """

    def __init__(self, owner: str, operation: str):
        super().__init__(
            f"{operation} attempted on the sealed private key of "
            f"{owner!r}: this process holds only the public half "
            f"(private keys never leave their owner's process)")
        self.owner = owner
        self.operation = operation


@dataclass(frozen=True)
class SealedPaillierPrivateKey:
    """The shape of a Paillier private key with no secrets inside.

    Stands in for a remote party's :class:`PaillierPrivateKey` in the
    mirrored choreography.  It carries only the public key and the
    owning party's name; ``lam``/``mu``/``p``/``q`` do not exist as
    attributes, and every decrypt method raises
    :class:`PublicOnlyKeyError`.  The ``sealed`` flag is what the
    sanctioned discard boundaries test for.
    """

    public_key: PaillierPublicKey
    owner: str
    sealed = True

    def decrypt_raw(self, ciphertext_value: int) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt_raw")

    def decrypt_raw_standard(self, ciphertext_value: int) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt_raw_standard")

    def decrypt(self, ciphertext) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt")

    def decrypt_raw_batch(self, ciphertext_values: list[int]) -> list[int]:
        raise PublicOnlyKeyError(self.owner, "decrypt_raw_batch")

    def decrypt_batch(self, ciphertexts: list) -> list[int]:
        raise PublicOnlyKeyError(self.owner, "decrypt_batch")

    def decrypt_signed(self, ciphertext) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt_signed")


@dataclass(frozen=True)
class SealedRsaPrivateKey:
    """Public-only stand-in for a remote party's RSA private key."""

    public_key: RsaPublicKey
    owner: str
    sealed = True

    @property
    def d(self) -> int:
        raise PublicOnlyKeyError(self.owner, "private exponent access")

    def decrypt(self, ciphertext: int) -> int:
        raise PublicOnlyKeyError(self.owner, "decrypt")


def is_sealed(private_key) -> bool:
    """True when ``private_key`` is a public-only sealed stand-in."""
    return bool(getattr(private_key, "sealed", False))


def seal_paillier_keypair(public_key: PaillierPublicKey,
                          owner: str) -> PaillierKeyPair:
    """A keypair whose private half is sealed -- usable for encryption
    and homomorphic arithmetic, never for decryption."""
    return PaillierKeyPair(
        public_key=public_key,
        private_key=SealedPaillierPrivateKey(public_key=public_key,
                                             owner=owner))


def seal_rsa_keypair(public_key: RsaPublicKey, owner: str) -> RsaKeyPair:
    return RsaKeyPair(
        public_key=public_key,
        private_key=SealedRsaPrivateKey(public_key=public_key, owner=owner))


def decrypt_or_discard(private_key, ciphertext) -> int:
    """Decrypt, or return a placeholder zero when the key is sealed.

    One of the sanctioned discard boundaries (the others are the
    engine's ``decrypt_raw_batch`` and ``zero_test_batch``).  A sealed
    key means the decrypting party is remote in this process: the true
    plaintext exists only in the owner's process, and everything
    computed from the placeholder feeds frames the mirror discards.
    """
    if is_sealed(private_key):
        return 0
    return private_key.decrypt(ciphertext)


def paillier_public_digest(public_key: PaillierPublicKey) -> str:
    """Canonical SHA-256 digest of a Paillier public key.

    The manifest pins each party's expected public key with this digest
    (computed by the orchestrator's trusted setup); sessions cross-check
    the wire-captured peer key against it before trusting a ciphertext.
    """
    material = f"paillier|{public_key.n}|{public_key.g}".encode()
    return hashlib.sha256(material).hexdigest()


def rsa_public_digest(public_key: RsaPublicKey) -> str:
    """Canonical SHA-256 digest of an RSA public key."""
    material = f"rsa|{public_key.n}|{public_key.e}".encode()
    return hashlib.sha256(material).hexdigest()
