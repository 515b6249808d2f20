//! Modules: collections of functions that can call each other.

use crate::function::Function;
use crate::ids::FuncId;
use spillopt_sync::{Arc, OnceLock};
use std::fmt;

/// A module: a named collection of functions.
///
/// [`Callee::Func`](crate::inst::Callee::Func) operands refer to functions
/// of the same module by [`FuncId`].
///
/// Functions are shared: each sits behind an [`Arc`] next to its
/// [`Function::fingerprint`], computed on first use by
/// [`fingerprint`](Module::fingerprint) and then cached. `Clone` is
/// shallow: the clone shares every function (and its cached key) with
/// the original. [`func_mut`](Module::func_mut) copies on write, so an
/// edit through one module never shows through another, and it drops
/// that function's cached key. Two modules that share a function
/// allocation therefore hold equal functions with equal keys.
#[derive(Clone, Default)]
pub struct Module {
    name: String,
    funcs: Vec<Slot>,
}

/// One function of a module and its lazily cached fingerprint.
#[derive(Clone)]
struct Slot {
    func: Arc<Function>,
    key: OnceLock<u64>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
        }
    }

    /// Returns the module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a function and returns its id.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        let id = FuncId::from_index(self.funcs.len());
        self.funcs.push(Slot {
            func: Arc::new(func),
            key: OnceLock::new(),
        });
        id
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()].func
    }

    /// Returns the shared allocation of the function with the given id.
    /// While a caller holds a clone of it, any edit through
    /// [`func_mut`](Module::func_mut) lands in a fresh copy, so
    /// [`Arc::ptr_eq`] with it implies an equal function.
    pub fn shared_func(&self, id: FuncId) -> &Arc<Function> {
        &self.funcs[id.index()].func
    }

    /// Returns the [`Function::fingerprint`] of the function with the
    /// given id, computing it on first use and caching it until the
    /// next [`func_mut`](Module::func_mut) of that function.
    pub fn fingerprint(&self, id: FuncId) -> u64 {
        let slot = &self.funcs[id.index()];
        *slot.key.get_or_init(|| slot.func.fingerprint())
    }

    /// Returns the function with the given id, mutably. A function
    /// shared with another module (or any other holder) is copied
    /// first; its cached fingerprint is dropped.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        let slot = &mut self.funcs[id.index()];
        slot.key = OnceLock::new();
        Arc::make_mut(&mut slot.func)
    }

    /// Returns the number of functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Iterates over all function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len()).map(FuncId::from_index)
    }

    /// Iterates over (id, function) pairs.
    pub fn funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> + '_ {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, slot)| (FuncId::from_index(i), &*slot.func))
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|slot| slot.func.name() == name)
            .map(FuncId::from_index)
    }

    /// Total static instruction count over all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|slot| slot.func.num_insts()).sum()
    }
}

/// Prints the name and the functions only: whether a key is cached
/// does not show.
impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field(
                "funcs",
                &self
                    .funcs
                    .iter()
                    .map(|slot| &*slot.func)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new("m");
        let a = m.add_func(Function::new("alpha"));
        let b = m.add_func(Function::new("beta"));
        assert_eq!(m.num_funcs(), 2);
        assert_eq!(m.func(a).name(), "alpha");
        assert_eq!(m.func_by_name("beta"), Some(b));
        assert_eq!(m.func_by_name("gamma"), None);
        assert_eq!(m.funcs().count(), 2);
    }

    #[test]
    fn debug_print_ignores_the_key_cache() {
        let mut m = Module::new("m");
        let a = m.add_func(Function::new("alpha"));
        let unkeyed = format!("{m:?}");
        m.fingerprint(a);
        assert_eq!(format!("{m:?}"), unkeyed);
        assert!(unkeyed.starts_with("Module { name: \"m\", funcs: [Function {"));
    }
}
