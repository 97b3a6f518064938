"""Agents and the staged execution of the sharing protocol.

A run moves through six stages in a fixed order: setup (registration),
key generation, payload encryption, access control, validation, and
data sharing. Four roles participate: the key generation centre that
owns the system parameters, the cloud server that keeps the canonical
store, one data owner who uploads ciphertext, and any number of users
who try to read it. Agents are plain state machines; every message
between them crosses a network channel so adversarial behaviour stays
visible in the transcript.

Runs are deterministic. A single seeded byte source feeds every sampled
value in a fixed consumption order (system parameters, then passwords
in roster order, then per-stage draws), and transcripts serialize to
stable JSON lines, so one seed always reproduces one byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .netsim import AdversaryClass, Network, ScenarioConfig, apply_adversary, principal_roster
from .primitives import Rng
from .protocol import (
    CorruptCiphertextError,
    Credentials,
    IntegrityError,
    KeyMaterial,
    SystemParams,
    access_query,
    derive_private_key,
    derive_session_key,
    make_cipher_bundle,
    new_system_params,
    recover_payload,
    registration_digest,
    validation_messages,
)
from .wire import (
    ACCEPTED,
    INTEGRITY_FAILURE,
    KIND_ACCESS_ACCEPTED,
    KIND_ACCESS_QUERY,
    KIND_ACCESS_REJECTED,
    KIND_CIPHER_UPLOAD,
    KIND_DATA_REQUEST,
    KIND_DATA_SHARE,
    KIND_KEY_ISSUE,
    KIND_KEY_STORE,
    KIND_PROVISION,
    KIND_REGISTER,
    KIND_REGISTER_ACCEPTED,
    KIND_REGISTER_DIGEST,
    KIND_REGISTER_REJECTED,
    KIND_SESSION_KEY,
    KIND_SESSION_REQUEST,
    KIND_SESSION_STORE,
    KIND_VALIDATE,
    KIND_VALIDATE_ACCEPTED,
    KIND_VALIDATE_REJECTED,
    PRIVATE,
    PUBLIC,
    REJECTED,
    Message,
    Outcome,
    Transcript,
)

# stage tokens, in execution order
STAGE_SETUP = "setup"
STAGE_KEYGEN = "keygen"
STAGE_ENCRYPTION = "encryption"
STAGE_ACCESS = "access"
STAGE_VALIDATION = "validation"
STAGE_SHARING = "sharing"
STAGES = (
    STAGE_SETUP,
    STAGE_KEYGEN,
    STAGE_ENCRYPTION,
    STAGE_ACCESS,
    STAGE_VALIDATION,
    STAGE_SHARING,
)

KGC_NAME = "kgc"
CLOUD_NAME = "cloud"
OWNER_NAME = "owner-000"


class PhaseOrderError(RuntimeError):
    """A stage was invoked on a principal in the wrong phase."""


class DuplicateIdentityError(ValueError):
    """Two registrations claimed the same user id."""


class UnknownPrincipalError(KeyError):
    """The server was asked about an identity it never stored."""


class Phase(Enum):
    INIT = "INIT"
    REGISTERED = "REGISTERED"
    KEYED = "KEYED"
    ACCESS_GRANTED = "ACCESS_GRANTED"
    VERIFIED = "VERIFIED"
    COMPLETE = "COMPLETE"
    REJECTED = "REJECTED"


@dataclass
class UserAgent:
    name: str
    credentials: Credentials
    adversary: AdversaryClass = AdversaryClass.NONE
    flips: int = 1
    phase: Phase = Phase.INIT
    params: SystemParams | None = None
    keys: KeyMaterial | None = None
    reg_digest: bytes | None = None
    session_key: bytes | None = None
    claimed_id: bytes | None = None
    recovered: list[bytes] = field(default_factory=list)


@dataclass
class OwnerAgent:
    name: str = OWNER_NAME
    phase: Phase = Phase.INIT
    params: SystemParams | None = None
    keys: KeyMaterial | None = None


@dataclass
class UserSlot:
    """Server-side record for one registered identity."""

    password: bytes
    private_key: bytes | None = None
    session_key: bytes | None = None
    attribute: bytes | None = None  # held to recompute checks, not accounted


class CloudStore:
    """Stored state at the server, with explicit byte accounting.

    The accounted footprint covers what the server must persist to run
    the protocol: the provisioned parameter ``s``, registered
    credentials, stored private and session keys, and uploaded bundles
    (wrapped ciphertext plus payload digest). Working values the server
    merely needs to recompute checks, the parameter ``m`` and per-user
    attributes, stay outside the accounted set.
    """

    def __init__(self) -> None:
        self.s: bytes | None = None
        self.m: bytes | None = None
        self.users: dict[bytes, UserSlot] = {}
        self.bundles: list[tuple[bytes, bytes]] = []

    def register(self, user_id: bytes, password: bytes) -> None:
        if user_id in self.users:
            raise DuplicateIdentityError(f"user id {user_id!r} is already registered")
        self.users[user_id] = UserSlot(password=password)

    def slot(self, user_id: bytes) -> UserSlot:
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownPrincipalError(f"no registered user with id {user_id!r}") from None

    def add_bundle(self, wrapped: bytes, payload_digest: bytes) -> None:
        self.bundles.append((wrapped, payload_digest))

    def accounted_bytes(self) -> int:
        total = 0
        if self.s is not None:
            total += len(self.s)
        for user_id, slot in self.users.items():
            total += len(user_id) + len(slot.password)
            if slot.private_key is not None:
                total += len(slot.private_key)
            if slot.session_key is not None:
                total += len(slot.session_key)
        for wrapped, payload_digest in self.bundles:
            total += len(wrapped) + len(payload_digest)
        return total


@dataclass
class CloudAgent:
    name: str = CLOUD_NAME
    store: CloudStore = field(default_factory=CloudStore)


@dataclass
class KgcAgent:
    name: str = KGC_NAME
    params: SystemParams | None = None
    issued: dict[bytes, KeyMaterial] = field(default_factory=dict)


@dataclass
class World:
    """Final agent states, attached to the transcript after a run."""

    kgc: KgcAgent
    cloud: CloudAgent
    owner: OwnerAgent
    users: list[UserAgent]

    def user(self, name: str) -> UserAgent:
        for candidate in self.users:
            if candidate.name == name:
                return candidate
        raise UnknownPrincipalError(f"no user named {name}")


def setup_phase(
    user: UserAgent, cloud: CloudAgent, kgc: KgcAgent, net: Network, width: int
) -> None:
    """Registration: provision, credential deposit, digest check."""
    if kgc.params is None:
        raise PhaseOrderError("system parameters must exist before registration")
    if user.phase is not Phase.INIT:
        raise PhaseOrderError(f"{user.name} cannot register from phase {user.phase.name}")
    params = kgc.params
    if cloud.store.s is None:
        # the first registration provisions the server
        provisioned = net.transmit(
            STAGE_SETUP, kgc.name, cloud.name, PRIVATE, KIND_PROVISION,
            {"s": params.s, "m": params.m},
        )
        cloud.store.s = provisioned.fields["s"]
        cloud.store.m = provisioned.fields["m"]
    net.transmit(
        STAGE_SETUP, kgc.name, user.name, PRIVATE, KIND_PROVISION, {"s": params.s, "m": params.m}
    )
    user.params = params

    creds = user.credentials
    fields = {"user_id": creds.user_id, "password": creds.password}
    annotation = None
    if user.adversary is AdversaryClass.WRONG_PASSWORD:
        fields, annotation = apply_adversary(user.adversary, fields, net.rng, flips=user.flips)
    delivered = net.transmit(
        STAGE_SETUP, user.name, cloud.name, PRIVATE, KIND_REGISTER, fields, annotation
    )
    cloud.store.register(delivered.fields["user_id"], delivered.fields["password"])

    # the user derives its digest from the credentials it believes in
    user.reg_digest = registration_digest(creds.user_id, creds.password, params.s, width)
    digest_msg = net.transmit(
        STAGE_SETUP, user.name, cloud.name, PUBLIC, KIND_REGISTER_DIGEST,
        {"user_id": creds.user_id, "digest": user.reg_digest},
    )
    slot = cloud.store.slot(digest_msg.fields["user_id"])
    expected = registration_digest(
        digest_msg.fields["user_id"], slot.password, cloud.store.s, width
    )
    presented = digest_msg.fields["digest"]
    if presented == expected:
        net.transmit(
            STAGE_SETUP, cloud.name, user.name, PUBLIC, KIND_REGISTER_ACCEPTED,
            {"digest": presented},
        )
        user.phase = Phase.REGISTERED
    else:
        net.transmit(
            STAGE_SETUP, cloud.name, user.name, PUBLIC, KIND_REGISTER_REJECTED,
            {"digest": presented, "expected": expected},
        )
        user.phase = Phase.REJECTED
        net.transcript.outcomes[user.name] = Outcome(
            status=REJECTED,
            stage=STAGE_SETUP,
            reason="registration digest mismatch",
            mismatch=(presented.hex(), expected.hex()),
        )


def keygen_phase(
    kgc: KgcAgent,
    cloud: CloudAgent,
    principal: UserAgent | OwnerAgent,
    net: Network,
    width: int,
) -> None:
    """Key issuance for one principal; user keys are mirrored to the server."""
    if kgc.params is None:
        raise PhaseOrderError("system parameters must exist before key issuance")
    is_owner = isinstance(principal, OwnerAgent)
    if is_owner:
        if principal.phase is not Phase.INIT:
            raise PhaseOrderError(
                f"{principal.name} cannot receive keys from phase {principal.phase.name}"
            )
        if principal.params is None:
            net.transmit(
                STAGE_KEYGEN, kgc.name, principal.name, PRIVATE, KIND_PROVISION,
                {"s": kgc.params.s, "m": kgc.params.m},
            )
            principal.params = kgc.params
    elif principal.phase is not Phase.REGISTERED:
        raise PhaseOrderError(
            f"{principal.name} cannot receive keys from phase {principal.phase.name}"
        )

    public_param = net.rng.take(width)
    attribute = net.rng.take(width)
    private_key = derive_private_key(
        kgc.params.m, public_param, kgc.params.s, attribute, width
    )
    material = KeyMaterial(
        public_param=public_param, attribute=attribute, private_key=private_key
    )
    fields = {"public_param": public_param, "attribute": attribute, "private_key": private_key}
    annotation = None
    if not is_owner and principal.adversary is AdversaryClass.FORGED_PRIVATE_KEY:
        # the principal throws the issued key away on receipt and keeps
        # a fabricated one; the transcript line shows what it holds
        fields, annotation = apply_adversary(principal.adversary, fields, net.rng, width=width)
    delivered = net.transmit(
        STAGE_KEYGEN, kgc.name, principal.name, PRIVATE, KIND_KEY_ISSUE, fields, annotation
    )
    principal.keys = KeyMaterial(
        public_param=public_param,
        attribute=attribute,
        private_key=delivered.fields["private_key"],
    )
    if not is_owner:
        user_id = principal.credentials.user_id
        kgc.issued[user_id] = material
        stored = net.transmit(
            STAGE_KEYGEN, kgc.name, cloud.name, PRIVATE, KIND_KEY_STORE,
            {
                "user_id": user_id,
                "private_key": material.private_key,
                "attribute": material.attribute,
            },
        )
        slot = cloud.store.slot(stored.fields["user_id"])
        slot.private_key = stored.fields["private_key"]
        slot.attribute = stored.fields["attribute"]
    else:
        kgc.issued[principal.name.encode("ascii")] = material
    principal.phase = Phase.KEYED


def encryption_phase(
    owner: OwnerAgent, cloud: CloudAgent, payloads: Sequence[bytes], net: Network
) -> None:
    """The owner encrypts every payload and uploads the bundles."""
    if owner.phase is not Phase.KEYED:
        raise PhaseOrderError(f"{owner.name} cannot encrypt from phase {owner.phase.name}")
    assert owner.params is not None and owner.keys is not None
    for payload in payloads:
        bundle = make_cipher_bundle(payload, owner.params, owner.keys.private_key)
        delivered = net.transmit(
            STAGE_ENCRYPTION, owner.name, cloud.name, PUBLIC, KIND_CIPHER_UPLOAD,
            {"wrapped": bundle.wrapped, "payload_digest": bundle.payload_digest},
        )
        cloud.store.add_bundle(
            delivered.fields["wrapped"], delivered.fields["payload_digest"]
        )


def _serve_access(
    query: Message,
    requester: UserAgent,
    users_by_id: dict[bytes, UserAgent],
    cloud: CloudAgent,
    kgc: KgcAgent,
    net: Network,
    width: int,
) -> None:
    """Server side of one access query, replayed or genuine.

    The server recomputes the expected query from stored values only.
    On a grant the generation centre derives the session key and sends
    it to the identity's registered holder, which on a replayed query
    is the victim, never the injector.
    """
    user_id = query.fields["user_id"]
    slot = cloud.store.slot(user_id)
    assert cloud.store.s is not None and slot.private_key is not None
    expected_digest = registration_digest(user_id, slot.password, cloud.store.s, width)
    expected_q = access_query(expected_digest, user_id, slot.private_key, width)
    presented_q = query.fields["q"]
    holder = users_by_id.get(user_id)
    reply_to = holder.name if holder is not None else requester.name
    replayed = query.annotation is not None and "replayed_from_step" in query.annotation
    if presented_q != expected_q:
        net.transmit(
            STAGE_ACCESS, cloud.name, reply_to, PUBLIC, KIND_ACCESS_REJECTED,
            {"q": presented_q, "expected": expected_q},
        )
        requester.phase = Phase.REJECTED
        net.transcript.outcomes[requester.name] = Outcome(
            status=REJECTED,
            stage=STAGE_ACCESS,
            reason="access query mismatch",
            mismatch=(presented_q.hex(), expected_q.hex()),
        )
        return
    accept_note = {"granted_for_replay_of_step": query.annotation["replayed_from_step"]} if replayed else None
    net.transmit(
        STAGE_ACCESS, cloud.name, reply_to, PUBLIC, KIND_ACCESS_ACCEPTED,
        {"user_id": user_id, "q": presented_q},
        annotation=accept_note,
    )
    net.transmit(
        STAGE_ACCESS, cloud.name, kgc.name, PRIVATE, KIND_SESSION_REQUEST, {"user_id": user_id}
    )
    material = kgc.issued[user_id]
    session_key = derive_session_key(
        material.public_param, kgc.params.m, material.attribute, width
    )
    if holder is not None:
        delivered = net.transmit(
            STAGE_ACCESS, kgc.name, holder.name, PRIVATE, KIND_SESSION_KEY,
            {"session_key": session_key},
        )
        # deterministic derivation: a replay-triggered re-issue hands the
        # holder the same bytes it already has, so nothing desynchronizes
        holder.session_key = delivered.fields["session_key"]
    stored = net.transmit(
        STAGE_ACCESS, kgc.name, cloud.name, PRIVATE, KIND_SESSION_STORE,
        {"user_id": user_id, "session_key": session_key},
    )
    slot.session_key = stored.fields["session_key"]
    requester.phase = Phase.ACCESS_GRANTED
    requester.claimed_id = user_id


def access_control_phase(
    user: UserAgent,
    users_by_id: dict[bytes, UserAgent],
    cloud: CloudAgent,
    kgc: KgcAgent,
    net: Network,
    width: int,
) -> None:
    """A keyed user presents its access query."""
    if user.phase is not Phase.KEYED:
        raise PhaseOrderError(f"{user.name} cannot request access from phase {user.phase.name}")
    assert user.reg_digest is not None and user.keys is not None
    user_id = user.credentials.user_id
    q = access_query(user.reg_digest, user_id, user.keys.private_key, width)
    delivered = net.transmit(
        STAGE_ACCESS, user.name, cloud.name, PUBLIC, KIND_ACCESS_QUERY, {"user_id": user_id, "q": q}
    )
    _serve_access(delivered, user, users_by_id, cloud, kgc, net, width)


def replay_access(
    replayer: UserAgent,
    users_by_id: dict[bytes, UserAgent],
    cloud: CloudAgent,
    kgc: KgcAgent,
    net: Network,
    width: int,
) -> None:
    """An unregistered outsider re-injects an observed access query."""
    if replayer.phase is not Phase.INIT:
        raise PhaseOrderError(
            f"{replayer.name} cannot replay from phase {replayer.phase.name}"
        )
    if not net.observed_queries:
        raise PhaseOrderError("no access query was observed, nothing to replay")
    source = net.observed_queries[0]
    replay_note = {
        "adversary": AdversaryClass.REPLAY_QUERY.name,
        "replayed_from_step": source.step,
        "injected_by": replayer.name,
    }
    delivered = net.transmit(
        source.stage, source.sender, source.recipient, source.channel, source.kind,
        source.fields, replay_note,
    )
    _serve_access(delivered, replayer, users_by_id, cloud, kgc, net, width)


def validation_phase(user: UserAgent, cloud: CloudAgent, net: Network, width: int) -> None:
    """Session-key proof: the user presents its validation pair."""
    if user.phase is not Phase.ACCESS_GRANTED:
        raise PhaseOrderError(f"{user.name} cannot validate from phase {user.phase.name}")
    hijacked = user.adversary is AdversaryClass.REPLAY_QUERY and user.session_key is None
    if hijacked:
        # the injector holds no secrets for the identity it claimed; the
        # best it can do from outside is guess, on the open channel
        assert user.claimed_id is not None
        channel = PUBLIC
        fields = {
            "user_id": user.claimed_id,
            "v1": net.rng.take(width),
            "v2": net.rng.take(width),
            "nonce": net.rng.take(width),
        }
        annotation = {
            "adversary": AdversaryClass.REPLAY_QUERY.name,
            "note": "guessed validation pair for a hijacked grant",
        }
    else:
        assert (
            user.params is not None
            and user.keys is not None
            and user.session_key is not None
        )
        user_id = user.credentials.user_id
        nonce = net.rng.take(width)
        pair = validation_messages(
            user_id,
            user.session_key,
            user.params.s,
            nonce,
            user.keys.private_key,
            user.params.m,
            user.keys.attribute,
            width,
        )
        channel = PRIVATE
        fields = {"user_id": user_id, "v1": pair.v1, "v2": pair.v2, "nonce": pair.nonce}
        annotation = None
        if user.adversary is AdversaryClass.TAMPER_VALIDATION:
            fields, annotation = apply_adversary(user.adversary, fields, net.rng, flips=user.flips)
    delivered = net.transmit(
        STAGE_VALIDATION, user.name, cloud.name, channel, KIND_VALIDATE, fields, annotation
    )

    user_id = delivered.fields["user_id"]
    slot = cloud.store.slot(user_id)
    if slot.session_key is None or slot.private_key is None:
        raise PhaseOrderError("validation arrived before any session grant")
    assert cloud.store.s is not None and cloud.store.m is not None
    assert slot.attribute is not None
    expected = validation_messages(
        user_id,
        slot.session_key,
        cloud.store.s,
        delivered.fields["nonce"],
        slot.private_key,
        cloud.store.m,
        slot.attribute,
        width,
    )
    got_v1 = delivered.fields["v1"]
    got_v2 = delivered.fields["v2"]
    if got_v1 == expected.v1 and got_v2 == expected.v2:
        net.transmit(
            STAGE_VALIDATION, cloud.name, user.name, delivered.channel, KIND_VALIDATE_ACCEPTED,
            {"v1": got_v1, "v2": got_v2},
        )
        user.phase = Phase.VERIFIED
    else:
        net.transmit(
            STAGE_VALIDATION, cloud.name, user.name, delivered.channel, KIND_VALIDATE_REJECTED,
            {"v1": got_v1, "v1_expected": expected.v1, "v2": got_v2, "v2_expected": expected.v2},
        )
        if got_v1 != expected.v1:
            mismatch = (got_v1.hex(), expected.v1.hex())
        else:
            mismatch = (got_v2.hex(), expected.v2.hex())
        user.phase = Phase.REJECTED
        net.transcript.outcomes[user.name] = Outcome(
            status=REJECTED,
            stage=STAGE_VALIDATION,
            reason="validation pair mismatch",
            mismatch=mismatch,
        )


def data_sharing_phase(cloud: CloudAgent, user: UserAgent, net: Network) -> None:
    """The server streams every stored bundle to a verified user."""
    if user.phase is not Phase.VERIFIED:
        raise PhaseOrderError(
            f"{user.name} cannot receive data from phase {user.phase.name}"
        )
    assert user.params is not None
    net.transmit(
        STAGE_SHARING, user.name, cloud.name, PUBLIC, KIND_DATA_REQUEST,
        {"user_id": user.credentials.user_id},
    )
    recovered: list[bytes] = []
    for wrapped, payload_digest in cloud.store.bundles:
        delivered = net.transmit(
            STAGE_SHARING, cloud.name, user.name, PUBLIC, KIND_DATA_SHARE,
            {"wrapped": wrapped, "payload_digest": payload_digest},
        )
        try:
            payload = recover_payload(
                delivered.fields["wrapped"],
                delivered.fields["payload_digest"],
                user.params.s,
                user.params.m,
            )
        except (CorruptCiphertextError, IntegrityError) as exc:
            # loud failure: nothing recovered so far is kept, and the
            # mismatching digests go into the outcome for rechecking
            user.phase = Phase.REJECTED
            user.recovered = []
            mismatch = None
            advertised = getattr(exc, "advertised", None)
            actual = getattr(exc, "actual", None)
            if advertised is not None and actual is not None:
                mismatch = (actual, advertised)
            net.transcript.outcomes[user.name] = Outcome(
                status=INTEGRITY_FAILURE,
                stage=STAGE_SHARING,
                reason=str(exc),
                mismatch=mismatch,
            )
            return
        recovered.append(payload)
    user.recovered = recovered
    user.phase = Phase.COMPLETE
    net.transcript.outcomes[user.name] = Outcome(
        status=ACCEPTED, stage=STAGE_SHARING, recovered=len(recovered)
    )


def run_protocol(config: ScenarioConfig, payloads: Sequence[bytes]) -> Transcript:
    """Drive every configured principal through the six stages.

    Stage order is global: all registrations, then all key issuance
    (owner first), then the owner's uploads, then access control with
    replay injections after the genuine queries, then validation, then
    data sharing. Each principal ends with exactly one outcome.
    """
    width = config.key_length_bits // 8
    rng = Rng(config.seed)
    transcript = Transcript()
    roster = principal_roster(config)
    adversaries = {
        name: (cls, flips) for name, cls, flips in roster if cls is not AdversaryClass.NONE
    }
    net = Network(transcript=transcript, rng=rng, adversaries=adversaries, width=width)

    kgc = KgcAgent()
    cloud = CloudAgent()
    owner = OwnerAgent()
    kgc.params = new_system_params(rng, width)
    users = []
    for name, cls, flips in roster:
        credentials = Credentials(
            user_id=name.encode("ascii"), password=rng.take(width)
        )
        users.append(
            UserAgent(name=name, credentials=credentials, adversary=cls, flips=flips)
        )
    users_by_id = {user.credentials.user_id: user for user in users}

    for user in users:
        if user.adversary is AdversaryClass.REPLAY_QUERY:
            continue  # outsiders never register
        setup_phase(user, cloud, kgc, net, width)

    keygen_phase(kgc, cloud, owner, net, width)
    for user in users:
        if user.phase is Phase.REGISTERED:
            keygen_phase(kgc, cloud, user, net, width)

    encryption_phase(owner, cloud, payloads, net)

    for user in users:
        if user.adversary is AdversaryClass.REPLAY_QUERY:
            replay_access(user, users_by_id, cloud, kgc, net, width)
        elif user.phase is Phase.KEYED:
            access_control_phase(user, users_by_id, cloud, kgc, net, width)

    for user in users:
        if user.phase is Phase.ACCESS_GRANTED:
            validation_phase(user, cloud, net, width)

    for user in users:
        if user.phase is Phase.VERIFIED:
            data_sharing_phase(cloud, user, net)

    for user in users:
        if user.name not in transcript.outcomes:
            raise PhaseOrderError(
                f"{user.name} finished in phase {user.phase.name} without an outcome"
            )
    transcript.world = World(kgc=kgc, cloud=cloud, owner=owner, users=users)
    return transcript
