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

from .netsim import AdversaryClass, Network, ScenarioConfig, principal_roster
from .primitives import Rng
from .protocol import (
    IntegrityError,
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

#: the server's three checks: stage -> (accept kind, reject kind, rejection reason)
GATES = {
    STAGE_SETUP: (KIND_REGISTER_ACCEPTED, KIND_REGISTER_REJECTED, "registration digest mismatch"),
    STAGE_ACCESS: (KIND_ACCESS_ACCEPTED, KIND_ACCESS_REJECTED, "access query mismatch"),
    STAGE_VALIDATION: (KIND_VALIDATE_ACCEPTED, KIND_VALIDATE_REJECTED, "validation pair mismatch"),
}


class PhaseOrderError(RuntimeError):
    """A stage ran out of order: on a principal in the wrong phase, for a
    user id registered twice, or for one the server never stored."""


class Phase(Enum):
    INIT = "INIT"
    REGISTERED = "REGISTERED"
    KEYED = "KEYED"
    ACCESS_GRANTED = "ACCESS_GRANTED"
    VERIFIED = "VERIFIED"
    COMPLETE = "COMPLETE"
    REJECTED = "REJECTED"


@dataclass(slots=True)
class UserAgent:
    name: str
    user_id: bytes
    password: bytes
    adversary: AdversaryClass = AdversaryClass.NONE
    phase: Phase = Phase.INIT
    params: SystemParams | None = None
    attribute: bytes | None = None
    private_key: bytes | None = None
    reg_digest: bytes | None = None
    session_key: bytes | None = None
    recovered: list[bytes] = field(default_factory=list)


@dataclass
class OwnerAgent:
    name: str = OWNER_NAME
    phase: Phase = Phase.INIT
    params: SystemParams | None = None
    private_key: bytes | None = None


@dataclass(slots=True)
class UserSlot:
    """Server-side record for one registered identity, slotted as a run holds one per registrant.

    ``attribute`` and ``digest``, the registration digest the setup gate
    checked, are working values held to recompute checks, not accounted;
    deriving ``digest`` again at access costs adversary-battery 7%
    (README, Perf-only constructs).
    """

    password: bytes
    private_key: bytes | None = None
    session_key: bytes | None = None
    attribute: bytes | None = None
    digest: bytes | None = None


class CloudStore:
    """Stored state at the server, with explicit byte accounting.

    The accounted footprint covers what the server must persist to run
    the protocol: the provisioned parameter ``s``, registered
    credentials, stored private and session keys, and uploaded bundles
    (wrapped ciphertext plus payload digest). Working values the server
    merely needs to recompute checks, the parameter ``m``, per-user
    attributes and the registration digest each slot keeps from setup,
    stay outside the accounted set. A bundle is the delivered
    upload's ``fields`` dict; shares resend it, as no code mutates one.
    """

    def __init__(self) -> None:
        self.s: bytes | None = None
        self.m: bytes | None = None
        self.users: dict[bytes, UserSlot] = {}
        self.bundles: list[dict[str, bytes]] = []

    def register(self, user_id: bytes, password: bytes) -> None:
        if user_id in self.users:
            raise PhaseOrderError(f"user id {user_id!r} is already registered")
        self.users[user_id] = UserSlot(password=password)

    def slot(self, user_id: bytes) -> UserSlot:
        try:
            return self.users[user_id]
        except KeyError:
            raise PhaseOrderError(f"no registered user with id {user_id!r}") from None

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
        return total + sum(len(value) for bundle in self.bundles for value in bundle.values())


@dataclass
class CloudAgent:
    store: CloudStore = field(default_factory=CloudStore)


@dataclass
class KgcAgent:
    params: SystemParams
    issued: dict[bytes, tuple[bytes, bytes]] = field(default_factory=dict)  # (public_param, attribute)


@dataclass
class World:
    """Final agent states, attached to the transcript after a run."""

    cloud: CloudAgent
    owner: OwnerAgent
    users: list[UserAgent]

    def user(self, name: str) -> UserAgent:
        for candidate in self.users:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _reject(
    user: UserAgent,
    net: Network,
    stage: str,
    reason: str,
    mismatch: tuple[str, str] | None,
    status: str = REJECTED,
) -> None:
    """Stop ``user`` at ``stage`` and record its one outcome."""
    user.phase = Phase.REJECTED
    net.transcript.outcomes[user.name] = Outcome(
        status=status, stage=stage, reason=reason, mismatch=mismatch
    )


def _decide(
    stage: str, message: Message, expected: dict[str, bytes], requester: UserAgent, net: Network,
    accept_fields: dict[str, bytes] | None = None, annotation: dict | None = None,
) -> bool:
    """Judge the delivered ``message`` at the server's ``stage`` gate.

    The gate compares the message's fields that ``expected`` names and
    answers its sender on its channel. Accepting sends ``accept_fields``
    and the presented values, with ``annotation``; rejecting sends each
    presented value beside its expected one (under ``expected`` for a
    one-value gate, ``<name>_expected`` otherwise) and rejects
    ``requester`` with the first differing pair.
    """
    accept_kind, reject_kind, reason = GATES[stage]
    presented = {name: message.fields[name] for name in expected}
    if presented == expected:
        net.transmit(
            stage, CLOUD_NAME, message.sender, message.channel, accept_kind,
            {**(accept_fields or {}), **presented}, annotation,
        )
        return True
    fields = {}
    for name, value in presented.items():
        fields[name] = value
        fields["expected" if len(presented) == 1 else f"{name}_expected"] = expected[name]
    net.transmit(stage, CLOUD_NAME, message.sender, message.channel, reject_kind, fields)
    name = next(name for name, value in presented.items() if value != expected[name])
    _reject(requester, net, stage, reason, (presented[name].hex(), expected[name].hex()))
    return False


def _require_phase(agent: UserAgent | OwnerAgent, phase: Phase, action: str) -> None:
    """Refuse to let ``agent`` ``action`` unless it is in ``phase``."""
    if agent.phase is not phase:
        raise PhaseOrderError(f"{agent.name} cannot {action} from phase {agent.phase.name}")


def _provision(kgc: KgcAgent, recipient: str, net: Network, stage: str) -> Message:
    """Send the system parameters to ``recipient`` over a private channel."""
    return net.transmit(
        stage, KGC_NAME, recipient, PRIVATE, KIND_PROVISION, {"s": kgc.params.s, "m": kgc.params.m}
    )


def setup_phase(user: UserAgent, cloud: CloudAgent, kgc: KgcAgent, net: Network) -> None:
    """Registration: provision, credential deposit, digest check."""
    _require_phase(user, Phase.INIT, "register")
    params = kgc.params
    if cloud.store.s is None:
        # the first registration provisions the server
        provisioned = _provision(kgc, CLOUD_NAME, net, STAGE_SETUP)
        cloud.store.s = provisioned.fields["s"]
        cloud.store.m = provisioned.fields["m"]
    _provision(kgc, user.name, net, STAGE_SETUP)
    user.params = params

    delivered = net.transmit(
        STAGE_SETUP, user.name, CLOUD_NAME, PRIVATE, KIND_REGISTER,
        {"user_id": user.user_id, "password": user.password},
    )
    cloud.store.register(delivered.fields["user_id"], delivered.fields["password"])

    # the user derives its digest from the credentials it believes in
    user.reg_digest = registration_digest(user.user_id, user.password, params.s)
    digest_msg = net.transmit(
        STAGE_SETUP, user.name, CLOUD_NAME, PUBLIC, KIND_REGISTER_DIGEST,
        {"user_id": user.user_id, "digest": user.reg_digest},
    )
    user_id = digest_msg.fields["user_id"]
    slot = cloud.store.slot(user_id)
    # kept, so that access checks against the digest this gate checked
    slot.digest = registration_digest(user_id, slot.password, cloud.store.s)
    if _decide(STAGE_SETUP, digest_msg, {"digest": slot.digest}, user, net):
        user.phase = Phase.REGISTERED


def keygen_phase(
    kgc: KgcAgent, cloud: CloudAgent, principal: UserAgent | OwnerAgent, net: Network
) -> None:
    """Key issuance for one principal; user keys are mirrored to the server."""
    is_owner = isinstance(principal, OwnerAgent)
    _require_phase(principal, Phase.INIT if is_owner else Phase.REGISTERED, "receive keys")
    if is_owner:  # the owner never registers, so it is provisioned here
        _provision(kgc, principal.name, net, STAGE_KEYGEN)
        principal.params = kgc.params

    public_param = net.rng.take(net.width)
    attribute = net.rng.take(net.width)
    private_key = derive_private_key(kgc.params.m, public_param, kgc.params.s, attribute)
    delivered = net.transmit(
        STAGE_KEYGEN, KGC_NAME, principal.name, PRIVATE, KIND_KEY_ISSUE,
        {"public_param": public_param, "attribute": attribute, "private_key": private_key},
    )
    principal.private_key = delivered.fields["private_key"]
    if not is_owner:
        principal.attribute = attribute
        kgc.issued[principal.user_id] = (public_param, attribute)
        stored = net.transmit(
            STAGE_KEYGEN, KGC_NAME, CLOUD_NAME, PRIVATE, KIND_KEY_STORE,
            {"user_id": principal.user_id, "private_key": private_key, "attribute": attribute},
        )
        slot = cloud.store.slot(stored.fields["user_id"])
        slot.private_key = stored.fields["private_key"]
        slot.attribute = stored.fields["attribute"]
    principal.phase = Phase.KEYED


def encryption_phase(
    owner: OwnerAgent, cloud: CloudAgent, payloads: Sequence[bytes], net: Network
) -> None:
    """The owner encrypts every payload and uploads the bundles."""
    _require_phase(owner, Phase.KEYED, "encrypt")
    for payload in payloads:
        wrapped, payload_digest = make_cipher_bundle(payload, owner.params, owner.private_key)
        delivered = net.transmit(
            STAGE_ENCRYPTION, owner.name, CLOUD_NAME, PUBLIC, KIND_CIPHER_UPLOAD,
            {"wrapped": wrapped, "payload_digest": payload_digest},
        )
        cloud.store.bundles.append(delivered.fields)


def _serve_access(
    query: Message,
    requester: UserAgent,
    cloud: CloudAgent,
    kgc: KgcAgent,
    net: Network,
    accept_note: dict | None = None,
) -> None:
    """Server side of one access query, genuine or replayed; a grant carries ``accept_note``.

    The server derives the expected query from the registration digest
    it checked at setup and the private key it stores.
    On a grant the generation centre sends the session key to the query's
    sender, and only a requester that is that sender keeps it. A replayer
    never is, since it replays from INIT and a query is sent only from
    KEYED; the victim already holds the same bytes.
    """
    user_id = query.fields["user_id"]
    slot = cloud.store.slot(user_id)
    expected_q = access_query(slot.digest, user_id, slot.private_key)
    if not _decide(
        STAGE_ACCESS, query, {"q": expected_q}, requester, net,
        accept_fields={"user_id": user_id}, annotation=accept_note,
    ):
        return
    net.transmit(
        STAGE_ACCESS, CLOUD_NAME, KGC_NAME, PRIVATE, KIND_SESSION_REQUEST, {"user_id": user_id}
    )
    public_param, attribute = kgc.issued[user_id]
    session_key = derive_session_key(public_param, kgc.params.m, attribute)
    delivered = net.transmit(
        STAGE_ACCESS, KGC_NAME, query.sender, PRIVATE, KIND_SESSION_KEY,
        {"session_key": session_key},
    )
    if delivered.recipient == requester.name:
        requester.session_key = delivered.fields["session_key"]
    stored = net.transmit(
        STAGE_ACCESS, KGC_NAME, CLOUD_NAME, PRIVATE, KIND_SESSION_STORE,
        {"user_id": user_id, "session_key": session_key},
    )
    slot.session_key = stored.fields["session_key"]
    requester.phase = Phase.ACCESS_GRANTED


def access_control_phase(user: UserAgent, cloud: CloudAgent, kgc: KgcAgent, net: Network) -> None:
    """A keyed user presents its access query.

    The query goes out on PUBLIC, where every replaying outsider observes
    it: its line is marked as observed by them, and the first such query
    is the one every replay resends.
    """
    _require_phase(user, Phase.KEYED, "request access")
    q = access_query(user.reg_digest, user.user_id, user.private_key)
    delivered = net.transmit(
        STAGE_ACCESS, user.name, CLOUD_NAME, PUBLIC, KIND_ACCESS_QUERY,
        {"user_id": user.user_id, "q": q}, net.observed_note,
    )
    if net.replayers:
        net.observed_query = net.observed_query or delivered
    _serve_access(delivered, user, cloud, kgc, net)


def replay_access(replayer: UserAgent, cloud: CloudAgent, kgc: KgcAgent, net: Network) -> None:
    """A principal that never registered re-injects an observed access query."""
    _require_phase(replayer, Phase.INIT, "replay")
    source = net.observed_query
    if source is None:
        raise PhaseOrderError("no access query was observed, nothing to replay")
    replay_note = {
        "adversary": replayer.adversary.name,
        "replayed_from_step": source.step,
        "injected_by": replayer.name,
    }
    delivered = net.transmit(
        source.stage, source.sender, source.recipient, source.channel, source.kind,
        source.fields, replay_note,
    )
    _serve_access(delivered, replayer, cloud, kgc, net, {"granted_for_replay_of_step": source.step})


def validation_phase(user: UserAgent, cloud: CloudAgent, net: Network) -> None:
    """Session-key proof: the user presents its validation pair."""
    _require_phase(user, Phase.ACCESS_GRANTED, "validate")
    width = net.width
    if user.session_key is None:
        # a replayed grant keys the query's sender, not the requester, which
        # whatever its class can only guess, on the open channel
        channel = PUBLIC
        fields = {
            "user_id": net.observed_query.fields["user_id"],
            "v1": net.rng.take(width),
            "v2": net.rng.take(width),
            "nonce": net.rng.take(width),
        }
        annotation = {
            "adversary": user.adversary.name,
            "note": "guessed validation pair for a hijacked grant",
        }
    else:
        nonce = net.rng.take(width)
        v1, v2 = validation_messages(
            user.user_id,
            user.session_key,
            user.params.s,
            nonce,
            user.private_key,
            user.params.m,
            user.attribute,
        )
        channel = PRIVATE
        fields = {"user_id": user.user_id, "v1": v1, "v2": v2, "nonce": nonce}
        annotation = None
    delivered = net.transmit(
        STAGE_VALIDATION, user.name, CLOUD_NAME, channel, KIND_VALIDATE, fields, annotation
    )

    user_id = delivered.fields["user_id"]
    slot = cloud.store.slot(user_id)
    expected_v1, expected_v2 = validation_messages(
        user_id,
        slot.session_key,
        cloud.store.s,
        delivered.fields["nonce"],
        slot.private_key,
        cloud.store.m,
        slot.attribute,
    )
    expected = {"v1": expected_v1, "v2": expected_v2}
    if _decide(STAGE_VALIDATION, delivered, expected, user, net):
        user.phase = Phase.VERIFIED


def data_sharing_phase(cloud: CloudAgent, user: UserAgent, net: Network) -> None:
    """The server streams every stored bundle to a verified user.

    ``user.params.shared`` keeps what the last user to open every share
    received and opened. Share ``i`` reuses that user's payload ``i`` when
    its fields dict is the dict that user received at ``i``: no code
    mutates a delivered dict, and the kept list holds it alive. Any other
    share is opened in full, and a failed open leaves the memo as it was
    (without the memo share-heavy runs 2.2 times as long: README,
    Perf-only constructs).
    """
    _require_phase(user, Phase.VERIFIED, "receive data")
    if user.params is None:
        _reject(user, net, STAGE_SHARING, "no system parameters to open shares", None)
        return
    net.transmit(
        STAGE_SHARING, user.name, CLOUD_NAME, PUBLIC, KIND_DATA_REQUEST,
        {"user_id": user.user_id},
    )
    kept_shares, kept_payloads = user.params.shared
    shares: list[dict[str, bytes]] = []
    recovered: list[bytes] = []
    for i, bundle in enumerate(cloud.store.bundles):
        fields = net.transmit(
            STAGE_SHARING, CLOUD_NAME, user.name, PUBLIC, KIND_DATA_SHARE, bundle
        ).fields
        shares.append(fields)
        if i < len(kept_shares) and fields is kept_shares[i]:
            recovered.append(kept_payloads[i])
            continue
        try:
            payload = recover_payload(fields["wrapped"], fields["payload_digest"], user.params)
        except IntegrityError as exc:
            # loud failure: nothing recovered so far is kept, and a digest
            # failure's mismatching pair goes into the outcome for rechecking
            _reject(user, net, STAGE_SHARING, str(exc), exc.mismatch, status=INTEGRITY_FAILURE)
            return
        recovered.append(payload)
    user.params.shared = (shares, tuple(recovered))  # a tuple, as user.recovered is public
    user.recovered = recovered
    user.phase = Phase.COMPLETE
    net.transcript.outcomes[user.name] = Outcome(status=ACCEPTED, stage=STAGE_SHARING)


def run_protocol(config: ScenarioConfig, payloads: Sequence[bytes]) -> Transcript:
    """Drive every configured principal through the six stages.

    Stage order is global: all registrations, then all key issuance
    (owner first), then the owner's uploads, then access control with
    replay injections after the genuine queries, then validation, then
    data sharing. Each principal ends with exactly one outcome.
    """
    width = config.width
    rng = Rng(config.seed)
    roster = principal_roster(config)
    # each adversary's (class, flip budget); not kept, as Network keeps only what it applies
    net = Network(rng, {row[0]: row[1:] for row in roster if row[1] is not AdversaryClass.NONE}, width)

    kgc = KgcAgent(new_system_params(rng, width))
    cloud = CloudAgent()
    owner = OwnerAgent()
    users = []
    for name, cls, _ in roster:
        users.append(UserAgent(name, name.encode("ascii"), rng.take(width), adversary=cls))

    for user in users:
        if user.adversary is AdversaryClass.REPLAY_QUERY:
            continue  # outsiders never register
        setup_phase(user, cloud, kgc, net)

    keygen_phase(kgc, cloud, owner, net)
    for user in users:
        if user.phase is Phase.REGISTERED:
            keygen_phase(kgc, cloud, user, net)

    encryption_phase(owner, cloud, payloads, net)

    for user in users:
        if user.adversary is AdversaryClass.REPLAY_QUERY:
            replay_access(user, cloud, kgc, net)
        elif user.phase is Phase.KEYED:
            access_control_phase(user, cloud, kgc, net)

    for user in users:
        if user.phase is Phase.ACCESS_GRANTED:
            validation_phase(user, cloud, net)

    for user in users:
        if user.phase is Phase.VERIFIED:
            data_sharing_phase(cloud, user, net)

    for user in users:
        if user.name not in net.transcript.outcomes:
            raise PhaseOrderError(
                f"{user.name} finished in phase {user.phase.name} without an outcome"
            )
    net.transcript.world = World(cloud=cloud, owner=owner, users=users)
    return net.transcript
