//! The billing ledger: every service charges line items here, and the
//! experiment harnesses read totals and breakdowns back out.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// The services that can appear on a bill.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Service {
    /// The FaaS platform (Lambda-like).
    Faas,
    /// The object store (S3-like).
    Blob,
    /// The key-value store (DynamoDB-like).
    Kv,
    /// The message queue (SQS-like).
    Queue,
    /// Serverful VMs (EC2-like).
    Compute,
    /// The autoscaling query service (Athena-like).
    Query,
    /// The front-door gateway (API Gateway-like).
    Gateway,
    /// Anything else.
    Other,
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Service::Faas => "faas",
            Service::Blob => "blob",
            Service::Kv => "kv",
            Service::Queue => "queue",
            Service::Compute => "compute",
            Service::Query => "query",
            Service::Gateway => "gateway",
            Service::Other => "other",
        };
        f.write_str(s)
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
struct LineItem {
    quantity: f64,
    dollars: f64,
    /// Whether any charge (even a zero one) has landed here: an id that
    /// was interned but never charged must not surface in the breakdown
    /// or the formatted bill, which determinism digests fold in.
    charged: bool,
}

/// An interned `(service, item)` handle: charging through it is an
/// array index — no string allocation or map lookup on the hot path.
/// Obtain one with [`Ledger::item_id`]; ids are only meaningful on the
/// ledger that issued them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ItemId(usize);

/// An [`ItemId`] that interns its `(service, item)` on first charge: the
/// ledger twin of `faasim_simcore::LazyCounter`, for services that bill
/// on every request.
///
/// First charge, not construction: [`Ledger::total`] adds slots in
/// interning order, so a slot has to enter the ledger when billing by
/// name would have created it for the float sum to come out the same.
pub struct LazyItem {
    service: Service,
    item: &'static str,
    id: Cell<Option<ItemId>>,
}

impl LazyItem {
    /// A handle for `(service, item)`, not yet interned.
    pub const fn new(service: Service, item: &'static str) -> LazyItem {
        LazyItem {
            service,
            item,
            id: Cell::new(None),
        }
    }

    /// [`Ledger::charge_id`] under this item, interning it on first use.
    /// One handle serves one ledger.
    pub fn charge(&self, ledger: &Ledger, quantity: f64, dollars: f64) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = ledger.item_id(self.service, self.item);
                self.id.set(Some(id));
                id
            }
        };
        ledger.charge_id(id, quantity, dollars);
    }
}

#[derive(Default)]
struct LedgerInner {
    /// Registry: `(service, item name)` → slot index. Nested so lookups
    /// can borrow the item name as `&str`.
    registry: BTreeMap<Service, BTreeMap<String, usize>>,
    slots: Vec<LineItem>,
}

impl LedgerInner {
    fn slot_of(&mut self, service: Service, item: &str) -> usize {
        let by_name = self.registry.entry(service).or_default();
        if let Some(&slot) = by_name.get(item) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.push(LineItem::default());
        by_name.insert(item.to_owned(), slot);
        slot
    }
}

/// A shared, append-only bill. Cheap to clone; clones share state.
#[derive(Clone, Default)]
pub struct Ledger {
    inner: Rc<RefCell<LedgerInner>>,
}

impl Ledger {
    /// A fresh, empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Add `quantity` units costing `dollars` under `(service, item)`.
    ///
    /// # Panics
    /// Panics on negative or non-finite amounts — refunds don't exist in
    /// this cloud, and a NaN bill is always a modeling bug.
    pub fn charge(&self, service: Service, item: &str, quantity: f64, dollars: f64) {
        assert!(
            quantity.is_finite() && quantity >= 0.0,
            "bad quantity {quantity} for {service}/{item}"
        );
        assert!(
            dollars.is_finite() && dollars >= 0.0,
            "bad charge ${dollars} for {service}/{item}"
        );
        let mut inner = self.inner.borrow_mut();
        let slot = inner.slot_of(service, item);
        let entry = &mut inner.slots[slot];
        entry.quantity += quantity;
        entry.dollars += dollars;
        entry.charged = true;
    }

    /// Intern `(service, item)` for repeated charging via
    /// [`Ledger::charge_id`] — the allocation-free fast path for
    /// services that bill per request at trace scale.
    pub fn item_id(&self, service: Service, item: &str) -> ItemId {
        ItemId(self.inner.borrow_mut().slot_of(service, item))
    }

    /// Add `quantity` units costing `dollars` under an interned item.
    ///
    /// # Panics
    /// Panics on negative or non-finite amounts, or an id from another
    /// ledger.
    pub fn charge_id(&self, id: ItemId, quantity: f64, dollars: f64) {
        assert!(
            quantity.is_finite() && quantity >= 0.0,
            "bad quantity {quantity}"
        );
        assert!(dollars.is_finite() && dollars >= 0.0, "bad charge ${dollars}");
        let mut inner = self.inner.borrow_mut();
        let entry = &mut inner.slots[id.0];
        entry.quantity += quantity;
        entry.dollars += dollars;
        entry.charged = true;
    }

    /// Grand total in dollars.
    pub fn total(&self) -> f64 {
        self.inner.borrow().slots.iter().map(|li| li.dollars).sum()
    }

    /// Total for one service.
    pub fn total_for(&self, service: Service) -> f64 {
        let inner = self.inner.borrow();
        inner
            .registry
            .get(&service)
            .map(|by_name| by_name.values().map(|&slot| inner.slots[slot].dollars).sum())
            .unwrap_or(0.0)
    }

    fn item(&self, service: Service, item: &str) -> Option<LineItem> {
        let inner = self.inner.borrow();
        let slot = *inner.registry.get(&service)?.get(item)?;
        Some(inner.slots[slot].clone())
    }

    /// Dollars charged under one `(service, item)` pair.
    pub fn item_dollars(&self, service: Service, item: &str) -> f64 {
        self.item(service, item).map(|li| li.dollars).unwrap_or(0.0)
    }

    /// Quantity accumulated under one `(service, item)` pair.
    pub fn item_quantity(&self, service: Service, item: &str) -> f64 {
        self.item(service, item).map(|li| li.quantity).unwrap_or(0.0)
    }

    /// All line items: `(service, item, quantity, dollars)`, sorted.
    pub fn breakdown(&self) -> Vec<(Service, String, f64, f64)> {
        let inner = self.inner.borrow();
        inner
            .registry
            .iter()
            .flat_map(|(s, by_name)| {
                by_name.iter().filter_map(|(i, &slot)| {
                    let li = &inner.slots[slot];
                    li.charged
                        .then(|| (*s, i.clone(), li.quantity, li.dollars))
                })
            })
            .collect()
    }

    /// Drop all recorded charges. Interned [`ItemId`]s stay valid —
    /// experiments reset the ledger after setup traffic while services
    /// holding ids keep charging into the same slots.
    pub fn reset(&self) {
        for li in self.inner.borrow_mut().slots.iter_mut() {
            *li = LineItem::default();
        }
    }

    /// A formatted bill, e.g. for the experiment reports.
    pub fn report(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let items = self.breakdown();
        if items.is_empty() {
            return "  (no charges)\n".to_owned();
        }
        for (service, item, quantity, dollars) in &items {
            writeln!(
                out,
                "  {service:<8} {item:<28} x{quantity:<14.1} {}",
                format_dollars(*dollars)
            )
            .unwrap();
        }
        writeln!(out, "  {:<8} {:<28} {:<15} {}", "total", "", "", format_dollars(self.total()))
            .unwrap();
        out
    }
}

/// Format a dollar amount with sensible precision for both $0.0004 and
/// $1,584 scales.
pub fn format_dollars(d: f64) -> String {
    if d == 0.0 {
        "$0".to_owned()
    } else if d < 0.01 {
        format!("${d:.6}")
    } else if d < 100.0 {
        format!("${d:.2}")
    } else {
        let whole = d.round() as i64;
        let mut s = whole.to_string();
        let mut i = s.len() as i64 - 3;
        while i > 0 {
            s.insert(i as usize, ',');
            i -= 3;
        }
        format!("${s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_item() {
        let ledger = Ledger::new();
        ledger.charge(Service::Blob, "get", 1.0, 0.0000004);
        ledger.charge(Service::Blob, "get", 1.0, 0.0000004);
        ledger.charge(Service::Blob, "put", 1.0, 0.000005);
        assert_eq!(ledger.item_quantity(Service::Blob, "get"), 2.0);
        assert!((ledger.item_dollars(Service::Blob, "get") - 0.0000008).abs() < 1e-15);
        assert!((ledger.total_for(Service::Blob) - 0.0000058).abs() < 1e-15);
        assert_eq!(ledger.total_for(Service::Kv), 0.0);
    }

    #[test]
    fn total_spans_services() {
        let ledger = Ledger::new();
        ledger.charge(Service::Faas, "gb-seconds", 100.0, 0.0016667);
        ledger.charge(Service::Compute, "m4.large-hours", 0.36, 0.036);
        assert!((ledger.total() - 0.0376667).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let a = Ledger::new();
        let b = a.clone();
        b.charge(Service::Queue, "requests", 1.0, 0.0000004);
        assert!(a.total() > 0.0);
        a.reset();
        assert_eq!(b.total(), 0.0);
    }

    #[test]
    fn lazy_item_enters_the_ledger_at_its_first_charge() {
        let ledger = Ledger::new();
        let reads = LazyItem::new(Service::Kv, "read-requests");
        ledger.charge(Service::Blob, "put", 1.0, 0.1);
        reads.charge(&ledger, 2.0, 0.2);
        ledger.charge(Service::Kv, "read-requests", 1.0, 0.1);
        // Same slot by handle and by name, created after `blob/put`.
        assert_eq!(ledger.item_id(Service::Kv, "read-requests"), ItemId(1));
        assert_eq!(ledger.item_quantity(Service::Kv, "read-requests"), 3.0);
        // The handle outlives a reset, like any interned id.
        ledger.reset();
        assert!(ledger.breakdown().is_empty());
        reads.charge(&ledger, 1.0, 0.1);
        assert_eq!(
            ledger.breakdown(),
            [(Service::Kv, "read-requests".to_owned(), 1.0, 0.1)]
        );
    }

    #[test]
    fn breakdown_is_sorted_and_complete() {
        let ledger = Ledger::new();
        ledger.charge(Service::Queue, "requests", 3.0, 0.3);
        ledger.charge(Service::Blob, "put", 1.0, 0.1);
        let rows = ledger.breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, Service::Blob);
        assert_eq!(rows[1].0, Service::Queue);
    }

    #[test]
    #[should_panic(expected = "bad charge")]
    fn negative_charge_panics() {
        Ledger::new().charge(Service::Other, "x", 1.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "bad quantity")]
    fn nan_quantity_panics() {
        Ledger::new().charge(Service::Other, "x", f64::NAN, 1.0);
    }

    #[test]
    fn report_contains_items_and_total() {
        let ledger = Ledger::new();
        ledger.charge(Service::Kv, "read", 1000.0, 0.0145);
        let rep = ledger.report();
        assert!(rep.contains("kv"));
        assert!(rep.contains("read"));
        assert!(rep.contains("total"));
        assert_eq!(Ledger::new().report(), "  (no charges)\n");
    }

    #[test]
    fn dollar_formatting() {
        assert_eq!(format_dollars(0.0), "$0");
        assert_eq!(format_dollars(0.0004), "$0.000400");
        assert_eq!(format_dollars(0.29), "$0.29");
        assert_eq!(format_dollars(27.84), "$27.84");
        assert_eq!(format_dollars(1584.0), "$1,584");
        assert_eq!(format_dollars(1234567.0), "$1,234,567");
    }
}
