"""Service policies and the enterprise-wide policy store (paper §3.1).

An administrator assigns each cloud service a pair of labels: a privilege
label ``Lp`` (the highest level of confidential data the service may
receive) and a confidentiality label ``Lc`` (the default label of text
created within the service). Users can later adjust privilege labels for
their own custom tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import PolicyError, UnknownServiceError
from repro.tdm.labels import EMPTY_LABEL, Label
from repro.tdm.tags import Tag, as_tag


@dataclass(frozen=True)
class ServicePolicy:
    """Labels assigned to one cloud service.

    Attributes:
        service_id: stable identifier (we use the service origin/URL
            prefix, as the plug-in matches services by origin).
        privilege: ``Lp`` — data with label ⊆ Lp may be uploaded.
        confidentiality: ``Lc`` — default label for text created here.
        display_name: human-readable name for warnings and reports.
    """

    service_id: str
    privilege: Label = EMPTY_LABEL
    confidentiality: Label = EMPTY_LABEL
    display_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.service_id:
            raise PolicyError("service_id must be non-empty")

    @property
    def name(self) -> str:
        return self.display_name or self.service_id

    def is_trusted_for(self, label: Label) -> bool:
        """Whether data labelled *label* may be uploaded in plain text."""
        return label.is_subset_of(self.privilege)

    def with_privilege_tag(self, tag) -> "ServicePolicy":
        return ServicePolicy(
            self.service_id,
            self.privilege.with_tag(tag),
            self.confidentiality,
            self.display_name,
        )

    def without_privilege_tag(self, tag) -> "ServicePolicy":
        return ServicePolicy(
            self.service_id,
            self.privilege.without_tag(tag),
            self.confidentiality,
            self.display_name,
        )


class PolicyStore:
    """Registry of service policies plus allocated tags.

    Unknown services default to the untrusted-external policy
    (``Lp = Lc = {}``) when ``default_untrusted`` is on: data created
    there is public, and no tagged data may flow there — exactly how the
    paper treats Google Docs.

    :attr:`registrations` counts every :meth:`register` call (privilege
    grants and revokes go through it), so a verdict cache that keys on
    the count never serves a verdict decided under an older policy.
    """

    def __init__(self, *, default_untrusted: bool = True) -> None:
        self._policies: Dict[str, ServicePolicy] = {}
        self._tags: Dict[str, Tag] = {}
        self._default_untrusted = default_untrusted
        self._registrations = 0

    @property
    def registrations(self) -> int:
        """Number of :meth:`register` calls so far."""
        return self._registrations

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self) -> Iterator[ServicePolicy]:
        return iter(self._policies.values())

    # ------------------------------------------------------------------
    # Service registration
    # ------------------------------------------------------------------

    def register(self, policy: ServicePolicy) -> ServicePolicy:
        """Register (or replace) a service policy; records its tags."""
        self._policies[policy.service_id] = policy
        for tag in list(policy.privilege) + list(policy.confidentiality):
            self._tags.setdefault(tag.name, tag)
        # Counted after the policy is in place: a lookup that reads the
        # new count also reads the new policy.
        self._registrations += 1
        return policy

    def register_service(
        self,
        service_id: str,
        *,
        privilege: Label = EMPTY_LABEL,
        confidentiality: Label = EMPTY_LABEL,
        display_name: Optional[str] = None,
    ) -> ServicePolicy:
        return self.register(
            ServicePolicy(service_id, privilege, confidentiality, display_name)
        )

    def get(self, service_id: str) -> ServicePolicy:
        policy = self._policies.get(service_id)
        if policy is None:
            if self._default_untrusted:
                return ServicePolicy(
                    service_id, EMPTY_LABEL, EMPTY_LABEL, display_name=service_id
                )
            raise UnknownServiceError(service_id)
        return policy

    def is_registered(self, service_id: str) -> bool:
        return service_id in self._policies

    def services(self) -> List[str]:
        return sorted(self._policies)

    # ------------------------------------------------------------------
    # Tag management
    # ------------------------------------------------------------------

    def allocate_tag(self, name: str, owner: Optional[str] = None) -> Tag:
        """Allocate a new (custom or administrative) tag.

        Tag names are unique across the store; re-allocating an existing
        name is an error so users cannot hijack an administrator's tag.
        """
        if name in self._tags:
            raise PolicyError(f"tag {name!r} is already allocated")
        tag = Tag(name, owner=owner)
        self._tags[name] = tag
        return tag

    def tag(self, name: str) -> Tag:
        try:
            return self._tags[name]
        except KeyError:
            raise PolicyError(f"unknown tag {name!r}") from None

    def known_tags(self) -> List[Tag]:
        return sorted(self._tags.values())

    def grant_privilege(self, service_id: str, tag, *, user: Optional[str] = None) -> None:
        """Add *tag* to a service's Lp.

        Only the tag's owner (or an administrator, ``user=None``) may
        change privileges for a custom tag (paper §3.1: the allocator
        controls which services may process data with their tag).
        """
        tag = as_tag(tag)
        self._check_tag_authority(tag, user)
        policy = self.get(service_id)
        self.register(policy.with_privilege_tag(tag))

    def revoke_privilege(self, service_id: str, tag, *, user: Optional[str] = None) -> None:
        """Remove *tag* from a service's Lp."""
        tag = as_tag(tag)
        self._check_tag_authority(tag, user)
        policy = self.get(service_id)
        self.register(policy.without_privilege_tag(tag))

    def _check_tag_authority(self, tag: Tag, user: Optional[str]) -> None:
        known = self._tags.get(tag.name)
        owner = known.owner if known is not None else tag.owner
        if user is not None and owner is not None and owner != user:
            raise PolicyError(
                f"user {user!r} may not manage tag {tag.name!r} owned by {owner!r}"
            )
