package constructs.generics;

import java.io.Serializable;
import java.util.*;
import static java.util.Objects.requireNonNull;

/** A normal class declaration with type parameters, a superclass and interfaces (JLS 8.1). */
public abstract class GenericClass<K extends Comparable<K>, V>
        extends AbstractMap<K, List<V>>
        implements Serializable, Comparable<GenericClass<K, V>> {

    private final Map<K, List<V>> entries = new HashMap<K, List<V>>();

    protected GenericClass(Map<K, List<V>> initial) {
        entries.putAll(requireNonNull(initial));
    }

    @Override
    public Set<Map.Entry<K, List<V>>> entrySet() {
        return entries.entrySet();
    }

    public abstract int compareTo(GenericClass<K, V> other);
}
